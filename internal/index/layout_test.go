package index

import (
	"testing"
	"unsafe"
)

// A hash bucket is 40 bytes; a stray field shows up here as a one-line diff.
func TestBucketSize(t *testing.T) {
	if got := unsafe.Sizeof(bucket{}); got != 40 {
		t.Fatalf("bucket is %d bytes, want 40", got)
	}
}
