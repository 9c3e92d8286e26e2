package serve

// The wire protocol, shared by the server and the serve/client library:
// a compact length-prefixed binary protocol on a raw TCP listener,
// pipelined (many requests in flight per connection, correlated by id).
// It is the only way to invoke a transaction over the network.
//
// Binary framing, all fields big-endian:
//
//	frame   := u32 payloadLen | payload          (payloadLen ≤ MaxFrame)
//	request := u64 id | i32 partition | u64 deadlineNs
//	           | u16 procLen | proc bytes
//	reply   := u64 id | u8 outcome | u64 elapsedNs
//
// Partition -1 means "unrouted" (the server spreads the request
// round-robin) and any other negative partition is rejected; a zero
// deadline means "server default". Each side sends a frame, length
// prefix and payload, with one Write.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// errShortHeader marks a request too short to carry even an id; the
// server cannot correlate a reply, so it drops the connection.
var errShortHeader = errors.New("serve: request payload shorter than the fixed header")

// Wire outcome codes: the binary reply's outcome byte.
const (
	// WireCommitted: the transaction committed.
	WireCommitted byte = iota

	// WireUserAbort: program-logic rollback — completed work, counted
	// with commits.
	WireUserAbort

	// WireDeadlined: abandoned past its deadline or retry budget.
	WireDeadlined

	// WireShed: rejected by backpressure — a full admission queue.
	// Never executed.
	WireShed

	// WireRejected: malformed request (unknown procedure, bad
	// partition, bytes after the procedure name). Never executed.
	WireRejected

	// WireClosed: refused because the server is draining.
	WireClosed
)

// OutcomeName returns the stable string form of a wire outcome code, as
// logs and reports print it.
func OutcomeName(b byte) string {
	switch b {
	case WireCommitted:
		return "committed"
	case WireUserAbort:
		return "user_abort"
	case WireDeadlined:
		return "deadlined"
	case WireShed:
		return "shed"
	case WireRejected:
		return "rejected"
	case WireClosed:
		return "closed"
	default:
		return fmt.Sprintf("outcome(%d)", b)
	}
}

// MaxFrame bounds a binary frame's payload; oversized frames poison the
// connection (the reader cannot resynchronize), so both ends enforce it.
const MaxFrame = 1 << 16

// InvokeRequest is a decoded request: invoke Proc (empty = an anonymous
// workload draw), optionally routed to Partition (-1 = unrouted),
// abandoned after Deadline (zero = server default).
type InvokeRequest struct {
	Proc      string
	Partition int
	Deadline  time.Duration
}

// InvokeReply is a decoded reply: the outcome code and the server-side
// latency from arrival to completion.
type InvokeReply struct {
	Outcome byte
	Elapsed time.Duration
}

// AppendRequest encodes one binary request payload (without the length
// prefix) onto buf.
func AppendRequest(buf []byte, id uint64, req InvokeRequest) ([]byte, error) {
	if len(req.Proc) > MaxFrame/2 {
		return buf, fmt.Errorf("serve: procedure name of %d bytes exceeds the frame bound", len(req.Proc))
	}
	part := int32(-1)
	if req.Partition >= 0 {
		if req.Partition > 1<<30 {
			return buf, fmt.Errorf("serve: partition %d out of range", req.Partition)
		}
		part = int32(req.Partition)
	}
	var dl uint64
	if req.Deadline > 0 {
		dl = uint64(req.Deadline)
	}
	buf = binary.BigEndian.AppendUint64(buf, id)
	buf = binary.BigEndian.AppendUint32(buf, uint32(part))
	buf = binary.BigEndian.AppendUint64(buf, dl)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(req.Proc)))
	return append(buf, req.Proc...), nil
}

// ParseRequest decodes a binary request payload.
func ParseRequest(payload []byte) (id uint64, req InvokeRequest, err error) {
	const fixed = 8 + 4 + 8 + 2
	if len(payload) < fixed {
		return 0, req, fmt.Errorf("%w: %d bytes, want at least %d", errShortHeader, len(payload), fixed)
	}
	id = binary.BigEndian.Uint64(payload)
	part := int32(binary.BigEndian.Uint32(payload[8:]))
	dl := binary.BigEndian.Uint64(payload[12:])
	procLen := int(binary.BigEndian.Uint16(payload[20:]))
	if len(payload) != fixed+procLen {
		return 0, req, fmt.Errorf("serve: request payload is %d bytes, want %d for a %d-byte procedure name", len(payload), fixed+procLen, procLen)
	}
	req.Proc = string(payload[fixed:])
	req.Partition = int(part)
	req.Deadline = time.Duration(dl)
	return id, req, nil
}

// AppendReply encodes one binary reply payload (without the length
// prefix) onto buf. A reply carries no rejection text: the outcome byte
// is the whole story.
func AppendReply(buf []byte, id uint64, outcome byte, elapsed time.Duration) []byte {
	buf = binary.BigEndian.AppendUint64(buf, id)
	buf = append(buf, outcome)
	var e uint64
	if elapsed > 0 {
		e = uint64(elapsed)
	}
	return binary.BigEndian.AppendUint64(buf, e)
}

// ParseReply decodes a binary reply payload.
func ParseReply(payload []byte) (id uint64, rep InvokeReply, err error) {
	if len(payload) != replyLen {
		return 0, rep, fmt.Errorf("serve: reply payload is %d bytes, want %d", len(payload), replyLen)
	}
	id = binary.BigEndian.Uint64(payload)
	rep.Outcome = payload[8]
	rep.Elapsed = time.Duration(binary.BigEndian.Uint64(payload[9:]))
	return id, rep, nil
}

// replyLen is the length of every binary reply payload.
const replyLen = 8 + 1 + 8

// ReadFrame reads one length-prefixed frame into buf (grown as needed)
// and returns the payload slice, valid until the next call.
func ReadFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4, 64)
	}
	hdr := buf[:4] // read into buf so that nothing escapes per frame
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, buf, fmt.Errorf("serve: frame of %d bytes exceeds the %d-byte bound", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	return buf, buf, nil
}
