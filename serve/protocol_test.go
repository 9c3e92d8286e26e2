package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		id   uint64
		req  InvokeRequest
	}{
		{"anonymous", 1, InvokeRequest{Partition: -1}},
		{"routed", 7, InvokeRequest{Proc: "touch", Partition: 2, Deadline: 50 * time.Millisecond}},
		{"named", 1 << 60, InvokeRequest{Proc: "plain", Partition: -1, Deadline: time.Second}},
		{"negative-partition-normalized", 9, InvokeRequest{Partition: -5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := AppendRequest(nil, tc.id, tc.req)
			if err != nil {
				t.Fatalf("AppendRequest: %v", err)
			}
			id, got, err := ParseRequest(payload)
			if err != nil {
				t.Fatalf("ParseRequest: %v", err)
			}
			if id != tc.id {
				t.Fatalf("id = %d, want %d", id, tc.id)
			}
			want := tc.req
			if want.Partition < 0 {
				want.Partition = -1 // any negative encodes as unrouted
			}
			if got != want {
				t.Fatalf("round trip = %+v, want %+v", got, want)
			}
		})
	}
}

func TestRequestBounds(t *testing.T) {
	if _, err := AppendRequest(nil, 1, InvokeRequest{Proc: strings.Repeat("x", MaxFrame)}); err == nil {
		t.Fatal("AppendRequest accepted an oversized procedure name")
	}
	if _, _, err := ParseRequest(make([]byte, 5)); !errors.Is(err, errShortHeader) {
		t.Fatalf("short payload error = %v, want errShortHeader", err)
	}
	// A name shorter than its length field claims, and bytes after the
	// name: the request ends where the name does.
	payload, _ := AppendRequest(nil, 1, InvokeRequest{Proc: "touch", Partition: -1})
	if _, _, err := ParseRequest(payload[:len(payload)-1]); err == nil {
		t.Fatal("ParseRequest accepted a truncated procedure name")
	}
	if _, _, err := ParseRequest(append(payload, 0, 0)); err == nil {
		t.Fatal("ParseRequest accepted bytes after the procedure name")
	}
}

func TestReplyRoundTrip(t *testing.T) {
	payload := AppendReply(nil, 42, WireDeadlined, 7*time.Millisecond)
	id, rep, err := ParseReply(payload)
	if err != nil {
		t.Fatalf("ParseReply: %v", err)
	}
	if id != 42 || rep.Outcome != WireDeadlined || rep.Elapsed != 7*time.Millisecond {
		t.Fatalf("round trip = id %d %+v", id, rep)
	}
	if _, _, err := ParseReply(payload[:10]); err == nil {
		t.Fatal("ParseReply accepted a short payload")
	}
	// Every outcome a reply can carry has its own printable name.
	seen := map[string]byte{}
	for code := WireCommitted; code <= WireClosed; code++ {
		name := OutcomeName(code)
		if prev, dup := seen[name]; name == "" || dup {
			t.Fatalf("OutcomeName(%d) = %q, also the name of %d", code, name, prev)
		}
		seen[name] = code
	}
}

// appendRequestFrame frames one request as a client sends it: the
// length prefix, then the payload.
func appendRequestFrame(buf []byte, id uint64, req InvokeRequest) ([]byte, error) {
	start := len(buf)
	buf, err := AppendRequest(append(buf, 0, 0, 0, 0), id, req)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf, err
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{{1}, {}, bytes.Repeat([]byte{7}, 300)}
	var stream []byte
	for _, p := range payloads {
		stream = append(binary.BigEndian.AppendUint32(stream, uint32(len(p))), p...)
	}
	r := bytes.NewReader(stream)
	var scratch []byte
	for i, want := range payloads {
		got, grown, err := ReadFrame(r, scratch)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		scratch = grown
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %v, want %v", i, got, want)
		}
	}
	oversized := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	if _, _, err := ReadFrame(bytes.NewReader(oversized), nil); err == nil {
		t.Fatal("ReadFrame accepted an oversized length prefix")
	}
}
