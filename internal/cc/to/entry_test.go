package to

import (
	"testing"
	"unsafe"
)

// The timestamp word is 40 bytes; a stray field shows up here as a one-line
// diff.
func TestTupleTSSize(t *testing.T) {
	if got := unsafe.Sizeof(tupleTS{}); got != 40 {
		t.Fatalf("tupleTS is %d bytes, want 40", got)
	}
}
