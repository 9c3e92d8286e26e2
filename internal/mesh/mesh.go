// Package mesh models the paper's target architecture (§3.1): a tiled chip
// multi-processor where each tile holds an in-order core, private L1, a
// slice of the shared L2 (NUCA), and a router on a 2D-mesh on-chip network.
// Tiles and network run at 1 GHz and each mesh hop takes two cycles.
//
// The model supplies the cost primitives the simulator charges for memory
// and synchronization operations:
//
//   - NUCA access: an L2 slice is addressed by hashing the object's home;
//     latency grows with Manhattan hop distance from the requesting tile.
//   - Cache-line transfer: writing or RMW-ing a shared line moves ownership
//     from the previous owner tile to the requester, paying a round trip.
//     Requests to the same line serialize through an occupancy window —
//     this is the mechanism behind the atomic-addition timestamp bottleneck
//     (Fig. 6) and mutex convoys (§4.1 "Mutexes").
//   - Center counter: the paper's proposed hardware counter sits at the
//     chip's center and serializes for one cycle per increment.
package mesh

// Timing constants for the target architecture. All values are in cycles at
// the 1 GHz target clock.
const (
	// HopCycles is the per-hop latency of the 2D-mesh network (§3.1).
	HopCycles = 2

	// L1Cycles is an L1 hit.
	L1Cycles = 1

	// L2BaseCycles is the tag/array access time of an L2 slice, paid on
	// top of the network traversal to the slice's tile.
	L2BaseCycles = 8

	// DRAMCycles is the penalty for going off-chip.
	DRAMCycles = 100

	// LineOpCycles is the cost of the RMW/store itself once the line is
	// owned locally.
	LineOpCycles = 1

	// HWCounterServiceCycles is the service time of the paper's proposed
	// hardware fetch-add unit: "incrementing the timestamp takes only one
	// cycle with the hardware counter-based approach" (§4.3).
	HWCounterServiceCycles = 1
)

// Frequency is the target clock in Hz (§3.1: tiles and network at 1 GHz).
const Frequency = 1e9

// Chip describes a W×H tile grid hosting n cores (one per tile). For core
// counts that are not perfect squares the grid is the smallest W×H with
// W*H >= n and |W-H| minimal, matching how tiled parts are laid out.
type Chip struct {
	N    int // number of cores/tiles in use
	W, H int // grid dimensions

	// tileX/tileY are precomputed per-tile coordinates. Hops sits on the
	// simulator's per-event path (every wakeup, line transfer and NUCA
	// access computes one or more distances), so the div/mod that maps a
	// tile id to its coordinates is replaced with two table lookups.
	tileX, tileY []int16
}

// NewChip builds the grid for n cores. n must be >= 1.
func NewChip(n int) *Chip {
	if n < 1 {
		panic("mesh: chip needs at least one core")
	}
	w := 1
	for w*w < n {
		w++
	}
	h := w
	// Shrink height while capacity still suffices (e.g. 8 cores -> 3x3
	// would waste a row; 4x2 fits exactly).
	for w*(h-1) >= n {
		h--
	}
	c := &Chip{N: n, W: w, H: h}
	c.tileX = make([]int16, w*h)
	c.tileY = make([]int16, w*h)
	for id := 0; id < w*h; id++ {
		c.tileX[id] = int16(id % w)
		c.tileY[id] = int16(id / w)
	}
	return c
}

// Hops returns the Manhattan distance in mesh hops between two tiles.
func (c *Chip) Hops(a, b int) int {
	dx := int(c.tileX[a]) - int(c.tileX[b])
	if dx < 0 {
		dx = -dx
	}
	dy := int(c.tileY[a]) - int(c.tileY[b])
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Diameter returns the maximum hop distance across the chip.
func (c *Chip) Diameter() int {
	return (c.W - 1) + (c.H - 1)
}

// CenterTile returns the tile id closest to the chip's geometric center,
// where the paper's hardware counter is placed so the average distance to
// each core is minimized (§4.3).
func (c *Chip) CenterTile() int {
	x := (c.W - 1) / 2
	y := (c.H - 1) / 2
	id := y*c.W + x
	if id >= c.N {
		id = c.N - 1
	}
	return id
}

// HomeTile deterministically assigns a home L2 slice/directory tile to an
// object identified by key (address hashing, as in real NUCA designs).
func (c *Chip) HomeTile(key uint64) int {
	// SplitMix64 finalizer: cheap, well distributed, deterministic.
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(c.N))
}

// L2Access returns the cycles for tile `from` to read a clean line homed at
// tile `home`: network there and back plus the slice access.
func (c *Chip) L2Access(from, home int) uint64 {
	return uint64(L2BaseCycles + 2*HopCycles*c.Hops(from, home))
}

// TransferCost returns the cycles to move exclusive ownership of a line
// homed at directory tile `home` from tile `owner` to tile `to`. The
// request indirects through the home directory, as in a real
// directory-based protocol: requester → home (lookup) → owner
// (invalidate + forward) → requester. This three-leg traversal is why a
// hot atomic word costs on the order of a hundred cycles on a large chip
// no matter which core last owned it (§4.3's arithmetic). When owner ==
// to the line is already in the local cache.
func (c *Chip) TransferCost(home, owner, to int) uint64 {
	if owner == to {
		return L1Cycles
	}
	legs := c.Hops(to, home) + c.Hops(home, owner) + c.Hops(owner, to)
	return uint64(LineOpCycles + HopCycles*legs)
}

// Line models one shared, writable cache line (a mutex word, an atomic
// counter, a tuple's lock word). Exclusive operations on the line serialize
// through an occupancy window: a request issued at time t by tile `tile`
// begins service no earlier than the line's busyUntil, pays the ownership
// transfer from the previous owner, and extends busyUntil. This is what
// makes a single contended line a throughput ceiling no matter how many
// cores spin on it — the paper's central observation about mutexes and
// atomic timestamp allocation.
//
// Line is not itself synchronized; the simulator's cooperative scheduler
// guarantees at most one core manipulates it at a time. It is 16 bytes, 12
// of state and 4 spare, and holds no pointer — the simulator keeps one per
// latch and per counter, by value, in slabs as large as the tables — so
// every operation takes the chip the line sits on. Its tile ids are int16s,
// so a chip with lines has at most 1<<15 tiles.
type Line struct {
	busyUntil uint64 // simulated time the line next becomes free
	home      int16  // directory tile for this line
	owner     int16  // tile currently owning the line exclusively

	// Spare is the 4 bytes that alignment would pad the line's 12 to 16
	// with, left to its embedder: no method of Line reads or writes them.
	// The simulator's latch keeps its holder and its wait queue there.
	Spare [2]uint16
}

// NewLine creates a line homed (by address hash) and initially owned at
// its directory tile for key.
func NewLine(chip *Chip, key uint64) Line {
	home := int16(chip.HomeTile(key))
	return Line{home: home, owner: home}
}

// Owner returns the current owning tile (for tests).
func (l *Line) Owner() int { return int(l.owner) }

// Exclusive performs an exclusive (write/RMW) access by `tile` issued at
// local time `now`, returning the completion time. It serializes with other
// exclusive accesses and migrates ownership.
func (l *Line) Exclusive(chip *Chip, tile int, now uint64) uint64 {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	done := start + chip.TransferCost(int(l.home), int(l.owner), tile)
	l.owner = int16(tile)
	l.busyUntil = done
	return done
}

// Read performs a read of the line by `tile` at time `now`, returning the
// completion time. Reads pay the distance to the current owner (data is
// forwarded from the owner's cache) but do not take ownership; concurrent
// readers do not serialize behind one another beyond the owner's current
// occupancy (a pending exclusive op must complete before its value is
// visible).
func (l *Line) Read(chip *Chip, tile int, now uint64) uint64 {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	if int(l.owner) == tile {
		return start + L1Cycles
	}
	return start + uint64(L2BaseCycles+2*HopCycles*chip.Hops(int(l.owner), tile))
}

// CenterService models the hardware counter's serialization point: requests
// arrive over the network, are serviced in one cycle each, and the reply
// returns over the network. Throughput is bounded by 1/HWCounterServiceCycles
// regardless of core count, while latency includes the mesh round trip.
type CenterService struct {
	chip      *Chip
	tile      int
	busyUntil uint64
}

// NewCenterService places a single-cycle service unit at the chip center.
func NewCenterService(chip *Chip) *CenterService {
	return &CenterService{chip: chip, tile: chip.CenterTile()}
}

// Request issues a request from `tile` at `now` and returns the completion
// time (arrival + queueing + 1-cycle service + return trip).
func (s *CenterService) Request(tile int, now uint64) uint64 {
	oneWay := uint64(HopCycles * s.chip.Hops(tile, s.tile))
	arrive := now + oneWay
	start := arrive
	if s.busyUntil > start {
		start = s.busyUntil
	}
	done := start + HWCounterServiceCycles
	s.busyUntil = done
	return done + oneWay
}
