package mem

import (
	"testing"
	"testing/quick"
)

func TestNewSystemValidation(t *testing.T) {
	for _, bad := range []int{0, -64, 48, 8192} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("line size %d: no panic", bad)
				}
			}()
			NewSystem(bad)
		}()
	}
	if s := NewSystem(64); s.LineSize() != 64 {
		t.Error("LineSize mismatch")
	}
}

func TestAllocDistinctPhysicalPages(t *testing.T) {
	s := NewSystem(64)
	as := s.NewAddressSpace()
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		v := as.Alloc(1)
		pa := as.MustTranslate(v)
		pp := pa / PageSize
		if seen[pp] {
			t.Fatalf("physical page %d allocated twice", pp)
		}
		seen[pp] = true
	}
}

func TestTranslateUnmapped(t *testing.T) {
	s := NewSystem(64)
	as := s.NewAddressSpace()
	if _, ok := as.Translate(0xdead000); ok {
		t.Fatal("unmapped address translated")
	}
}

func TestMustTranslatePanics(t *testing.T) {
	s := NewSystem(64)
	as := s.NewAddressSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	as.MustTranslate(0x12345000)
}

func TestPageOffsetPreserved(t *testing.T) {
	s := NewSystem(64)
	as := s.NewAddressSpace()
	base := as.Alloc(1)
	for _, off := range []uint64{0, 1, 63, 64, 4095} {
		pa := as.MustTranslate(base + off)
		if pa%PageSize != off {
			t.Errorf("offset %d became %d", off, pa%PageSize)
		}
	}
}

func TestAddressSpacesDisjointVirtual(t *testing.T) {
	s := NewSystem(64)
	a, b := s.NewAddressSpace(), s.NewAddressSpace()
	va, vb := a.Alloc(4), b.Alloc(4)
	if va == vb {
		t.Fatal("two address spaces returned the same virtual base")
	}
	if a.pid == b.pid {
		t.Fatal("duplicate PIDs")
	}
}

func TestPrivatePagesNotShared(t *testing.T) {
	s := NewSystem(64)
	a, b := s.NewAddressSpace(), s.NewAddressSpace()
	pa := a.MustTranslate(a.Alloc(1))
	pb := b.MustTranslate(b.Alloc(1))
	if pa/PageSize == pb/PageSize {
		t.Fatal("private allocations share a physical page")
	}
}

func TestSharedSegmentAliases(t *testing.T) {
	s := NewSystem(64)
	a, b := s.NewAddressSpace(), s.NewAddressSpace()
	seg := s.NewSegment(2)
	if len(seg.physPages) != 2 {
		t.Fatalf("segment pages = %d", len(seg.physPages))
	}
	va, vb := a.MapShared(seg), b.MapShared(seg)
	if va == vb {
		t.Error("expected different virtual addresses across spaces")
	}
	for off := uint64(0); off < 2*PageSize; off += 512 {
		if a.MustTranslate(va+off) != b.MustTranslate(vb+off) {
			t.Fatalf("offset %d: shared segment translates differently", off)
		}
	}
}

func TestResolveLineNumbers(t *testing.T) {
	s := NewSystem(64)
	as := s.NewAddressSpace()
	base := as.Alloc(1)
	addr := as.Resolve(base + 130)
	if addr.VirtLine != (base+130)/64 {
		t.Errorf("VirtLine = %d", addr.VirtLine)
	}
	if addr.PhysLine != addr.Phys/64 {
		t.Errorf("PhysLine = %d, Phys = %d", addr.PhysLine, addr.Phys)
	}
	if addr.Phys%PageSize != 130 {
		t.Errorf("physical offset = %d", addr.Phys%PageSize)
	}
}

// setOf is the set a byte address indexes in a VIPT L1 of 64 sets of
// 64-byte lines: address bits 6..11, all inside the page offset.
func setOf(addr uint64) int { return int(addr / 64 % 64) }

func TestLinesForSetAllInSet(t *testing.T) {
	s := NewSystem(64)
	as := s.NewAddressSpace()
	const set = 17
	lines := as.LinesForSet(64, set, 9)
	if len(lines) != 9 {
		t.Fatalf("got %d lines", len(lines))
	}
	physSeen := map[uint64]bool{}
	for _, v := range lines {
		a := as.Resolve(v)
		if setOf(a.Virt) != set {
			t.Errorf("virtual %#x maps to set %d", a.Virt, setOf(a.Virt))
		}
		if setOf(a.Phys) != set {
			t.Errorf("physical %#x maps to set %d", a.Phys, setOf(a.Phys))
		}
		if physSeen[a.PhysLine] {
			t.Errorf("duplicate physical line %d", a.PhysLine)
		}
		physSeen[a.PhysLine] = true
	}
}

func TestLinesForSetValidatesSet(t *testing.T) {
	s := NewSystem(64)
	as := s.NewAddressSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range set")
		}
	}()
	as.LinesForSet(64, 64, 1)
}

func TestLinesForSetVIPTGuard(t *testing.T) {
	s := NewSystem(64)
	as := s.NewAddressSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when set bits exceed page offset")
		}
	}()
	// 128 sets * 64 B = 8 KiB > 4 KiB page: aliasing assumption broken.
	as.LinesForSet(128, 0, 1)
}

func TestSharedLinesForSetAlias(t *testing.T) {
	s := NewSystem(64)
	a, b := s.NewAddressSpace(), s.NewAddressSpace()
	const set = 9
	aa, bb := SharedLinesForSet(s, a, b, 64, set, 9)
	if len(aa) != 9 || len(bb) != 9 {
		t.Fatalf("lengths %d, %d", len(aa), len(bb))
	}
	for i := range aa {
		ra, rb := a.Resolve(aa[i]), b.Resolve(bb[i])
		if ra.PhysLine != rb.PhysLine {
			t.Fatalf("pair %d: physical lines differ (%d vs %d)", i, ra.PhysLine, rb.PhysLine)
		}
		if ra.VirtLine == rb.VirtLine {
			t.Errorf("pair %d: virtual lines identical; spaces should differ", i)
		}
		if setOf(ra.Phys) != set {
			t.Errorf("pair %d in set %d", i, setOf(ra.Phys))
		}
	}
	// Distinct pairs must be distinct physical lines.
	if a.Resolve(aa[0]).PhysLine == a.Resolve(aa[1]).PhysLine {
		t.Error("pair 0 and 1 share a physical line")
	}
}

func TestQuickTranslationConsistent(t *testing.T) {
	s := NewSystem(64)
	as := s.NewAddressSpace()
	base := as.Alloc(8)
	f := func(off uint32) bool {
		o := uint64(off) % (8 * PageSize)
		pa1 := as.MustTranslate(base + o)
		pa2 := as.MustTranslate(base + o)
		if pa1 != pa2 {
			return false
		}
		// Same page offset.
		return pa1%PageSize == (base+o)%PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickVIPTSetAgreement(t *testing.T) {
	// For 64 sets x 64 B lines, the virtual and physical set index agree
	// for every mapped address: the VIPT property of Section IV-B.
	s := NewSystem(64)
	as := s.NewAddressSpace()
	base := as.Alloc(16)
	f := func(off uint32) bool {
		o := uint64(off) % (16 * PageSize)
		v := base + o
		p := as.MustTranslate(v)
		return setOf(v) == setOf(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
