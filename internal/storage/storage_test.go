package storage

import (
	"strings"
	"testing"
	"testing/quick"

	"abyss1000/internal/slot"
)

func testSchema() *Schema {
	return NewSchema("T",
		Col{Name: "ID", Width: 8},
		Col{Name: "VAL", Width: 8},
		Col{Name: "PAD", Width: 20},
	)
}

func TestSchemaLayout(t *testing.T) {
	s := testSchema()
	if s.RowSize() != 36 {
		t.Fatalf("row size = %d, want 36", s.RowSize())
	}
	if s.Offset(0) != 0 || s.Offset(1) != 8 || s.Offset(2) != 16 {
		t.Fatalf("offsets wrong: %d %d %d", s.Offset(0), s.Offset(1), s.Offset(2))
	}
}

func TestSchemaRejectsZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero-width column")
		}
	}()
	NewSchema("BAD", Col{Name: "X", Width: 0})
}

func TestColIndex(t *testing.T) {
	s := testSchema()
	if s.ColIndex("VAL") != 1 {
		t.Fatal("ColIndex wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown column")
		}
	}()
	s.ColIndex("NOPE")
}

func TestMaskWidth(t *testing.T) {
	s := testSchema()
	for _, c := range []struct {
		cols  []int
		mask  uint64
		width int
	}{
		{nil, AllCols, 36},
		{[]int{1}, 0b010, 8},
		{[]int{2, 0}, 0b101, 28},
		{[]int{1, 1}, 0b010, 8}, // a column named twice counts once
		{[]int{0, 1, 2}, 0b111, 36},
	} {
		mask := s.Mask(c.cols)
		if width := s.Width(mask); mask != c.mask || width != c.width {
			t.Errorf("Mask(%v) = %#b with width %d; want %#b, %d", c.cols, mask, width, c.mask, c.width)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a column the schema lacks")
		}
	}()
	s.Mask([]int{3})
}

func TestU64RoundTrip(t *testing.T) {
	s := testSchema()
	row := make([]byte, s.RowSize())
	f := func(v uint64) bool {
		s.PutU64(row, 1, v)
		return s.GetU64(row, 1) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestI64RoundTrip(t *testing.T) {
	s := testSchema()
	row := make([]byte, s.RowSize())
	f := func(v int64) bool {
		s.PutI64(row, 1, v)
		return s.GetI64(row, 1) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPutDoesNotClobberNeighbors(t *testing.T) {
	s := testSchema()
	row := make([]byte, s.RowSize())
	s.PutU64(row, 0, 0xAAAAAAAAAAAAAAAA)
	s.PutU64(row, 1, 0xBBBBBBBBBBBBBBBB)
	copy(s.Bytes(row, 2), "hello")
	if s.GetU64(row, 0) != 0xAAAAAAAAAAAAAAAA {
		t.Fatal("col 0 clobbered")
	}
	if string(s.Bytes(row, 2)[:5]) != "hello" {
		t.Fatal("col 2 clobbered")
	}
}

func TestTableRowsAreDisjoint(t *testing.T) {
	tab := NewTable(0, testSchema(), 10, 10, 2)
	for i := 0; i < 10; i++ {
		tab.Schema.PutU64(tab.Row(i), 0, uint64(i)+100)
	}
	for i := 0; i < 10; i++ {
		if got := tab.Schema.GetU64(tab.Row(i), 0); got != uint64(i)+100 {
			t.Fatalf("row %d = %d, rows overlap", i, got)
		}
	}
	// Row slices must not allow append-extension into the next row.
	r := tab.Row(0)
	if cap(r) != len(r) {
		t.Fatal("row slice capacity leaks into neighboring row")
	}
}

func TestAllocSlotSegments(t *testing.T) {
	tab := NewTable(0, testSchema(), 100, 20, 4)
	// 80 spare slots over 4 workers = 20 each.
	seen := map[int]bool{}
	for w := 0; w < 4; w++ {
		for i := 0; i < 20; i++ {
			s := tab.AllocSlot(w)
			if s < 20 || s >= 100 {
				t.Fatalf("slot %d outside insert region", s)
			}
			if seen[s] {
				t.Fatalf("slot %d allocated twice", s)
			}
			seen[s] = true
		}
	}
	// All segments exhausted now.
	for w := 0; w < 4; w++ {
		if s := tab.AllocSlot(w); s != -1 {
			t.Fatalf("exhausted segment returned %d", s)
		}
	}
}

func TestAllocSlotWorkersAreIndependent(t *testing.T) {
	tab := NewTable(0, testSchema(), 40, 0, 4)
	a := tab.AllocSlot(0)
	b := tab.AllocSlot(3)
	if a == b {
		t.Fatal("different workers shared a slot")
	}
}

// TestFreeSlotReturnsOnlyTheLast: FreeSlot rewinds the cursor by one slot,
// which must be the segment's last allocated one, and the next AllocSlot
// hands that slot out again.
func TestFreeSlotReturnsOnlyTheLast(t *testing.T) {
	tab := NewTable(0, testSchema(), 40, 0, 4)
	a, b := tab.AllocSlot(1), tab.AllocSlot(1)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("freeing a slot below the last", func() { tab.FreeSlot(1, a) })
	tab.FreeSlot(1, b)
	tab.FreeSlot(1, a)
	if start, next := tab.SegRange(1); next != start {
		t.Fatalf("after freeing both slots the segment holds [%d, %d)", start, next)
	}
	mustPanic("freeing below the segment start", func() { tab.FreeSlot(1, a-1) })
	if s := tab.AllocSlot(1); s != a {
		t.Fatalf("AllocSlot after FreeSlot = %d, want %d", s, a)
	}
}

func TestNewTablePanicsWhenLoadedExceedsCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable(0, testSchema(), 5, 6, 1)
}

// A hash index links slots through int32 words: a table one slot past that
// must be refused by name, not wrapped by the first index over it.
func TestNewTablePanicsAboveMaxCapacity(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "2147483647") {
			t.Fatalf("panic %q, want one naming the limit", msg)
		}
	}()
	NewTable(0, testSchema(), MaxCapacity+1, 0, 1)
}

// Only the loaded rows are allocated with the table; the insert region
// comes a page at a time, and Rows never hands out a range that spans two
// allocations.
func TestInsertRegionIsPaged(t *testing.T) {
	const loaded, capacity = 10, 10 + 2*slot.PageSlots + 5
	tab := NewTable(0, testSchema(), capacity, loaded, 3)
	rs := tab.Schema.RowSize()
	for s := 0; s < capacity; s++ {
		tab.Schema.PutU64(tab.Row(s), 0, uint64(s))
	}
	for s := 0; s < capacity; s++ {
		if got := tab.Schema.GetU64(tab.Row(s), 0); got != uint64(s) {
			t.Fatalf("row %d = %d", s, got)
		}
	}
	cases := []struct{ start, n, want int }{
		{0, 4, 4},
		{6, 8, 4},                             // stops at the loaded rows' end
		{loaded, 3, 3},                        // inside the first page
		{loaded + slot.PageSlots - 2, 8, 2},   // stops at a page's end
		{loaded + 2*slot.PageSlots, 100, 5},   // the short last page
		{loaded + 2*slot.PageSlots + 4, 1, 1}, // the very last slot
		{loaded + slot.PageSlots, slot.PageSlots, slot.PageSlots}, // a whole page
	}
	for _, c := range cases {
		rows := tab.Rows(c.start, c.n)
		if len(rows) != c.want*rs || cap(rows) != len(rows) {
			t.Fatalf("Rows(%d, %d): %d bytes (cap %d), want %d rows", c.start, c.n, len(rows), cap(rows), c.want)
		}
		for i := 0; i < c.want; i++ {
			if got := tab.Schema.GetU64(rows[i*rs:], 0); got != uint64(c.start+i) {
				t.Fatalf("Rows(%d, %d) row %d holds slot %d", c.start, c.n, i, got)
			}
		}
	}
}

func TestNewTablePanicsOnZeroWorkers(t *testing.T) {
	for _, nworkers := range []int{0, -1} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("expected panic for nworkers=%d", nworkers)
				}
				// The message must name the problem, not be the
				// runtime's opaque divide-by-zero error.
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "worker") {
					t.Fatalf("nworkers=%d: panic %v, want a descriptive storage error", nworkers, r)
				}
			}()
			NewTable(0, testSchema(), 8, 4, nworkers)
		}()
	}
}

func TestMemKeyUniquePerSlotAndTable(t *testing.T) {
	a := NewTable(1, testSchema(), 4, 4, 1)
	b := NewTable(2, testSchema(), 4, 4, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		for _, tab := range []*Table{a, b} {
			k := tab.MemKey(i)
			if seen[k] {
				t.Fatalf("duplicate mem key %#x", k)
			}
			seen[k] = true
		}
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	t1 := c.Add(testSchema(), 4, 4, 1)
	s2 := NewSchema("U", Col{Name: "K", Width: 8})
	t2 := c.Add(s2, 4, 4, 1)
	if t1.ID != 0 || t2.ID != 1 {
		t.Fatalf("table ids %d/%d", t1.ID, t2.ID)
	}
	if c.Table("U") != t2 {
		t.Fatal("lookup by name wrong")
	}
	if len(c.Tables()) != 2 {
		t.Fatal("Tables() wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown table")
		}
	}()
	c.Table("MISSING")
}
