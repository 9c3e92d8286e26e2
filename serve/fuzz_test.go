package serve

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// normalized is req as the binary encoding carries it: any negative
// partition is "unrouted", a non-positive deadline is "server default".
func normalized(req InvokeRequest) InvokeRequest {
	if req.Partition < 0 {
		req.Partition = -1
	}
	if req.Deadline < 0 {
		req.Deadline = 0
	}
	return req
}

// FuzzWire feeds arbitrary bytes to the binary protocol as a connection
// would deliver them: a stream of length-prefixed frames, each handed to
// both payload parsers. The properties: nothing panics; a frame buffer never
// grows past MaxFrame whatever a length prefix claims; a payload
// ParseRequest accepts either re-encodes to one that parses back to the same
// (normalized) request or is refused by AppendRequest with an error; a
// payload ParseReply accepts re-encodes byte for byte. The same bytes are
// then read as a structured request and reply, which must survive
// Append∘Parse unchanged.
func FuzzWire(f *testing.F) {
	frame := func(payload []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	var stream []byte
	for _, req := range []InvokeRequest{
		{Partition: -1},
		{Proc: "touch", Partition: 2, Deadline: 50 * time.Millisecond},
		{Proc: "plain", Partition: -1, Deadline: time.Second},
		{Partition: -5},
	} {
		payload, err := AppendRequest(nil, 7, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame(payload))
		f.Add(frame(payload[:len(payload)-1])) // truncated name or header
		f.Add(frame(append(payload, 0, 0)))    // an argument count after the name
		stream = append(stream, frame(payload)...)
	}
	reply := frame(AppendReply(nil, 42, WireDeadlined, 7*time.Millisecond))
	f.Add(reply)
	f.Add(append(stream, reply...))
	f.Add(stream[:len(stream)-3]) // connection cut mid-frame
	// Lying length prefixes: far past MaxFrame; MaxFrame with one byte sent.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0x00, 0x01, 0x00, 0x00, 1})
	f.Add(frame(make([]byte, 5))) // shorter than the fixed header
	// A full header whose name length runs past the payload.
	f.Add(frame(append(make([]byte, 20), 0xff, 0xff)))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			payload, grown, err := ReadFrame(r, buf)
			if cap(grown) > MaxFrame {
				t.Fatalf("frame buffer grew to %d bytes, bound is %d", cap(grown), MaxFrame)
			}
			if err != nil {
				break
			}
			buf = grown
			if id, req, err := ParseRequest(payload); err == nil {
				if again, err := AppendRequest(nil, id, req); err == nil {
					id2, req2, err := ParseRequest(again)
					if err != nil || id2 != id || req2 != normalized(req) {
						t.Fatalf("accepted request does not survive re-encoding: %d %+v -> %d %+v, %v", id, req, id2, req2, err)
					}
				}
			}
			if id, rep, err := ParseReply(payload); err == nil && rep.Elapsed >= 0 {
				if again := AppendReply(nil, id, rep.Outcome, rep.Elapsed); !bytes.Equal(again, payload) {
					t.Fatalf("accepted reply re-encodes to %x, was %x", again, payload)
				}
			}
		}

		// The same bytes as a structured request: id, partition and deadline
		// from the front, then a short name.
		var hdr [20]byte
		n := copy(hdr[:], data)
		rest := data[n:]
		req := InvokeRequest{
			Partition: int(int32(binary.BigEndian.Uint32(hdr[8:]))),
			Deadline:  time.Duration(binary.BigEndian.Uint64(hdr[12:])),
		}
		if req.Partition > 1<<30 {
			req.Partition = 1 << 30
		}
		id := binary.BigEndian.Uint64(hdr[:])
		req.Proc = string(rest[:min(len(rest), int(hdr[0])%64)])
		payload, err := AppendRequest(nil, id, req)
		if err != nil {
			t.Fatalf("AppendRequest refused an in-bounds request %+v: %v", req, err)
		}
		id2, req2, err := ParseRequest(payload)
		if err != nil || id2 != id || req2 != normalized(req) {
			t.Fatalf("request round trip: %d %+v -> %d %+v, %v", id, req, id2, req2, err)
		}
		elapsed := max(req.Deadline, 0)
		id2, rep, err := ParseReply(AppendReply(nil, id, hdr[1], elapsed))
		if err != nil || id2 != id || rep.Outcome != hdr[1] || rep.Elapsed != elapsed {
			t.Fatalf("reply round trip: %d %d %v -> %d %+v, %v", id, hdr[1], elapsed, id2, rep, err)
		}
	})
}
