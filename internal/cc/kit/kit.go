// Package kit holds the access-set lookup the T/O and OCC schemes share.
package kit

import "abyss1000/internal/storage"

// Find returns the first of recs whose key is (t, slot), or nil.
func Find[R any](recs []R, key func(*R) (*storage.Table, int), t *storage.Table, slot int) *R {
	for i := range recs {
		if rt, rs := key(&recs[i]); rt == t && rs == slot {
			return &recs[i]
		}
	}
	return nil
}
