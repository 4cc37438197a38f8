// Package mem models the virtual-memory substrate the attacks need:
// per-process address spaces with 4 KiB pages, a simple physical page
// allocator, and shared segments (the shared-library pages of Algorithm 1).
//
// Two properties of real systems carry the attacks and are reproduced here:
//
//   - Algorithm 1 requires the sender and receiver to reach the *same
//     physical line* through their own (generally different) virtual
//     addresses — modelled by mapping a shared Segment into both spaces.
//
//   - Algorithm 2 requires only *same-set aliasing*: for a VIPT L1 with
//     64 sets × 64 B lines, address bits 6–11 select the set and lie inside
//     the page offset, so the low 12 bits of virtual and physical addresses
//     agree and a process can target any set purely with virtual addresses.
package mem

import "fmt"

// PageSize is the (only) page size of the model, matching the paper's
// VIPT argument: set index bits fall inside the page offset.
const PageSize = 4096

// System owns physical memory. Physical pages are never reclaimed: the
// simulations are short and the address space is 64-bit.
type System struct {
	lineSize     int
	nextPhysPage uint64
	nextPID      int
}

// NewSystem creates a memory system for the given cache line size (which
// must be a power of two dividing the page size).
func NewSystem(lineSize int) *System {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 || PageSize%lineSize != 0 {
		panic(fmt.Sprintf("mem: bad line size %d", lineSize))
	}
	// Start physical pages at 1 so that physical line 0 is never handed
	// out; several tests use "line 0 exists" as a sentinel.
	return &System{lineSize: lineSize, nextPhysPage: 1}
}

// LineSize returns the line size the system was built with.
func (s *System) LineSize() int { return s.lineSize }

func (s *System) allocPhysPage() uint64 {
	p := s.nextPhysPage
	s.nextPhysPage++
	return p
}

// Segment is a run of physical pages that can be mapped into multiple
// address spaces — the model of a shared library's read-only data pages.
type Segment struct {
	physPages []uint64
}

// NewSegment allocates npages fresh physical pages as a shareable segment.
func (s *System) NewSegment(npages int) *Segment {
	if npages <= 0 {
		panic("mem: segment needs at least one page")
	}
	seg := &Segment{physPages: make([]uint64, npages)}
	for i := range seg.physPages {
		seg.physPages[i] = s.allocPhysPage()
	}
	return seg
}

// AddressSpace is one process's page table.
type AddressSpace struct {
	sys       *System
	pid       int
	pages     map[uint64]uint64 // virtual page -> physical page
	nextVPage uint64
}

// NewAddressSpace creates an empty address space. Each space gets virtual
// pages from a distinct high region so that two processes never accidentally
// share virtual addresses (making cross-space aliasing bugs loud).
func (s *System) NewAddressSpace() *AddressSpace {
	pid := s.nextPID
	s.nextPID++
	return &AddressSpace{
		sys:       s,
		pid:       pid,
		pages:     make(map[uint64]uint64),
		nextVPage: uint64(pid+1) << 24, // disjoint 64 GiB-aligned regions
	}
}

// Alloc maps npages fresh private physical pages and returns the virtual
// base address of the run.
func (as *AddressSpace) Alloc(npages int) uint64 {
	if npages <= 0 {
		panic("mem: Alloc needs at least one page")
	}
	base := as.nextVPage
	for i := 0; i < npages; i++ {
		as.pages[as.nextVPage] = as.sys.allocPhysPage()
		as.nextVPage++
	}
	return base * PageSize
}

// MapShared maps seg into the space and returns the virtual base address.
// The same segment mapped into two spaces yields different virtual
// addresses backed by identical physical pages.
func (as *AddressSpace) MapShared(seg *Segment) uint64 {
	base := as.nextVPage
	for _, pp := range seg.physPages {
		as.pages[as.nextVPage] = pp
		as.nextVPage++
	}
	return base * PageSize
}

// Translate maps a virtual address to its physical address. The boolean is
// false for unmapped addresses.
func (as *AddressSpace) Translate(vaddr uint64) (uint64, bool) {
	pp, ok := as.pages[vaddr/PageSize]
	if !ok {
		return 0, false
	}
	return pp*PageSize + vaddr%PageSize, true
}

// MustTranslate is Translate for addresses the caller knows are mapped.
func (as *AddressSpace) MustTranslate(vaddr uint64) uint64 {
	pa, ok := as.Translate(vaddr)
	if !ok {
		panic(fmt.Sprintf("mem: unmapped virtual address %#x in pid %d", vaddr, as.pid))
	}
	return pa
}

// Addr is a resolved access target: the pair of line numbers the cache
// hierarchy consumes.
type Addr struct {
	Virt     uint64 // virtual byte address
	Phys     uint64 // physical byte address
	VirtLine uint64 // Virt / lineSize
	PhysLine uint64 // Phys / lineSize
}

// Resolve translates vaddr and packages the line numbers.
func (as *AddressSpace) Resolve(vaddr uint64) Addr {
	pa := as.MustTranslate(vaddr)
	ls := uint64(as.sys.lineSize)
	return Addr{Virt: vaddr, Phys: pa, VirtLine: vaddr / ls, PhysLine: pa / ls}
}

// LinesForSet allocates private pages and returns count virtual addresses
// in as, every one mapping to the given L1 set, each on its own page (so
// each is a distinct cache line with a distinct physical tag). This builds
// the receiver's "line 0 .. line N" working set of Algorithms 1 and 2.
func (as *AddressSpace) LinesForSet(sets, set, count int) []uint64 {
	if set < 0 || set >= sets {
		panic(fmt.Sprintf("mem: set %d out of range [0,%d)", set, sets))
	}
	lineSize := as.sys.lineSize
	if lineSize*sets > PageSize {
		panic("mem: set index bits exceed page offset; VIPT aliasing assumption broken")
	}
	out := make([]uint64, count)
	for i := range out {
		base := as.Alloc(1)
		out[i] = base + uint64(set*lineSize)
	}
	return out
}

// SharedLinesForSet maps a fresh shared segment into both spaces and
// returns, for each space, count virtual addresses mapping to the given L1
// set and backed by the *same* physical lines in both — the shared-library
// lines of Algorithm 1. The i-th address in each slice refers to the same
// physical line.
func SharedLinesForSet(s *System, a, b *AddressSpace, sets, set, count int) (aAddrs, bAddrs []uint64) {
	if s.lineSize*sets > PageSize {
		panic("mem: set index bits exceed page offset; VIPT aliasing assumption broken")
	}
	aAddrs = make([]uint64, count)
	bAddrs = make([]uint64, count)
	for i := 0; i < count; i++ {
		seg := s.NewSegment(1)
		off := uint64(set * s.lineSize)
		aAddrs[i] = a.MapShared(seg) + off
		bAddrs[i] = b.MapShared(seg) + off
	}
	return aAddrs, bAddrs
}
