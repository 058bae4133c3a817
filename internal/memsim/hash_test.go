package memsim

import (
	"fmt"
	"math/rand"
	"testing"
)

// twinSpaces drives two address spaces through the same operations.
// Commits differ: at a delta step the first space captures a delta while
// the twin takes a full CommitUpperHalf, so the overlay of the delta onto
// the first space's materialised base can be compared with the full
// snapshot taken at the same point.
type twinSpaces struct {
	t       *testing.T
	rng     *rand.Rand
	a, b    *AddressSpace
	baseA   Snapshot // a's latest committed generation, materialised
	haveGen bool     // a has a committed generation to delta against
}

func newTwinSpaces(t *testing.T, seed int64) *twinSpaces {
	tw := &twinSpaces{t: t, rng: rand.New(rand.NewSource(seed)), a: NewAddressSpace(), b: NewAddressSpace()}
	for _, s := range []*AddressSpace{tw.a, tw.b} {
		s.Mmap("app.text", UpperHalf, KindText, 64<<10)
		s.MmapWithData("app.state", UpperHalf, KindData, make([]byte, 5*PageSize))
		s.MmapWithData("app.tail", UpperHalf, KindData, make([]byte, 2*PageSize+13))
		s.Mmap("libmpi.so", LowerHalf, KindText, 64<<10)
	}
	return tw
}

// upperAddrs lists the upper-half region addresses, identical in both
// spaces because every mapping operation is mirrored.
func (tw *twinSpaces) upperAddrs() []uint64 {
	var out []uint64
	for _, r := range tw.a.RegionsOf(UpperHalf) {
		out = append(out, r.Addr)
	}
	return out
}

// step applies one random operation to both spaces and names it.
func (tw *twinSpaces) step() string {
	addrs := tw.upperAddrs()
	both := func(f func(s *AddressSpace)) { f(tw.a); f(tw.b) }
	switch op := tw.rng.Intn(10); {
	case op < 4 && len(addrs) > 0:
		addr := addrs[tw.rng.Intn(len(addrs))]
		r, _ := tw.a.Lookup(addr)
		n := 1 + tw.rng.Intn(2*PageSize)
		if uint64(n) > r.Size {
			n = int(r.Size)
		}
		off := uint64(tw.rng.Int63n(int64(r.Size) - int64(n) + 1))
		data := make([]byte, n)
		if tw.rng.Intn(4) == 0 {
			// Rewrite the current bytes: dirty but deduplicable.
			cur, _ := tw.a.Read(addr, off, uint64(n))
			copy(data, cur)
		} else {
			tw.rng.Read(data)
		}
		both(func(s *AddressSpace) {
			if err := s.Write(addr, off, data); err != nil {
				tw.t.Fatal(err)
			}
		})
		return fmt.Sprintf("write(%x+%d,%d)", addr, off, n)
	case op == 4:
		n := uint64(1 + tw.rng.Intn(3*PageSize))
		both(func(s *AddressSpace) { s.Sbrk(n) })
		return fmt.Sprintf("sbrk(%d)", n)
	case op == 5:
		n := uint64(1 + tw.rng.Intn(3*PageSize))
		both(func(s *AddressSpace) { s.SbrkShrink(n) })
		return fmt.Sprintf("sbrk-shrink(%d)", n)
	case op == 6 && len(addrs) > 1:
		addr := addrs[tw.rng.Intn(len(addrs))]
		both(func(s *AddressSpace) { s.Munmap(addr) })
		return fmt.Sprintf("munmap(%x)", addr)
	case op == 7 || !tw.haveGen:
		tw.baseA = tw.a.CommitUpperHalf()
		tw.b.CommitUpperHalf()
		tw.haveGen = true
		return "commit-full"
	case op == 8:
		d := tw.a.CommitUpperHalfDelta()
		full := tw.b.CommitUpperHalf()
		overlay := ApplyDelta(tw.baseA, d)
		if got, want := overlay.Fingerprint(), full.Fingerprint(); got != want {
			tw.t.Fatalf("ApplyDelta fingerprint %016x, full commit on the twin %016x", got, want)
		}
		overlay.RegionHashes = nil
		if got, want := overlay.Fingerprint(), full.Fingerprint(); got != want {
			tw.t.Fatalf("memo-free ApplyDelta fingerprint %016x, full commit on the twin %016x", got, want)
		}
		tw.baseA = ApplyDelta(tw.baseA, d)
		return "commit-delta"
	default:
		snap := tw.baseA
		both(func(s *AddressSpace) { s.RestoreUpperHalf(snap) })
		// A restored space has no committed generation.
		tw.haveGen = false
		return "restore"
	}
}

// checkLive asserts the copy-free live fingerprint of s equals the
// snapshot fingerprint, both from the RegionHashes memo and from bytes.
func checkLive(t *testing.T, label string, s *AddressSpace) {
	t.Helper()
	live := s.Fingerprint()
	snap := s.SnapshotUpperHalf()
	if memo := snap.Fingerprint(); memo != live {
		t.Fatalf("%s: live fingerprint %016x, snapshot (memo) %016x", label, live, memo)
	}
	snap.RegionHashes = nil
	if fresh := snap.Fingerprint(); fresh != live {
		t.Fatalf("%s: live fingerprint %016x, snapshot (memo-free) %016x", label, live, fresh)
	}
}

// TestLiveFingerprintEquivalence runs seeded random operation sequences
// and pins the invariant the page memo must keep: after every step the
// copy-free AddressSpace.Fingerprint equals SnapshotUpperHalf's
// fingerprint with and without RegionHashes, and every delta overlay
// fingerprints like the full commit of a twin space.
func TestLiveFingerprintEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		tw := newTwinSpaces(t, seed)
		var trail []string
		for i := 0; i < 150; i++ {
			trail = append(trail, tw.step())
			label := fmt.Sprintf("seed %d after %v", seed, trail[max(0, len(trail)-4):])
			checkLive(t, label+" (space)", tw.a)
			checkLive(t, label+" (twin)", tw.b)
			if fa, fb := tw.a.Fingerprint(), tw.b.Fingerprint(); fa != fb {
				t.Fatalf("%s: twin spaces diverged: %016x vs %016x", label, fa, fb)
			}
		}
	}
}

// flipMasks are the byte flips the corruption tests apply: lowest bit,
// highest bit, whole byte.
var flipMasks = [...]byte{0x01, 0x80, 0xFF}

// TestPageHashDetectsEverySingleByteFlip flips every byte of a full page
// and of a short tail page (a length that is not a multiple of 8, so the
// byte-wise tail loop is covered too) and requires pageHash and the
// region digest to change every time — from bytes and from the live memo.
func TestPageHashDetectsEverySingleByteFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const tail = 1021
	data := make([]byte, PageSize+tail)
	rng.Read(data)
	a := NewAddressSpace()
	r := a.MmapWithData("state", UpperHalf, KindData, data)
	region := contentHash(r.Name, r.Half, r.Kind, r.Addr, r.Size, data)
	for _, page := range []struct {
		start, end int
	}{{0, PageSize}, {PageSize, PageSize + tail}} {
		base := pageHash(data[page.start:page.end])
		for off := page.start; off < page.end; off++ {
			for _, m := range flipMasks {
				data[off] ^= m
				if pageHash(data[page.start:page.end]) == base {
					t.Fatalf("flip %#x at byte %d of page [%d,%d) left pageHash unchanged", m, off, page.start, page.end)
				}
				if contentHash(r.Name, r.Half, r.Kind, r.Addr, r.Size, data) == region {
					t.Fatalf("flip %#x at byte %d left the region digest unchanged", m, off)
				}
				data[off] ^= m
			}
		}
	}
	// The live memo path: flip a byte through Write, fingerprint, undo.
	// The first Write materialises the region to its page-aligned size,
	// so the baseline is taken after a same-value write.
	mustWrite(t, a, r.Addr, 0, data[:1])
	live := a.Fingerprint()
	for off := 0; off < len(data); off += 7 {
		mustWrite(t, a, r.Addr, uint64(off), []byte{data[off] ^ 0xFF})
		if a.Fingerprint() == live {
			t.Fatalf("live flip at byte %d left the fingerprint unchanged", off)
		}
		mustWrite(t, a, r.Addr, uint64(off), []byte{data[off]})
		if got := a.Fingerprint(); got != live {
			t.Fatalf("undoing the flip at byte %d gave %016x, want %016x", off, got, live)
		}
	}
}

// corruptionSpace returns a committed full snapshot holding a region of
// several pages plus a short tail page, and the delta captured after
// every page of that region was rewritten.
func corruptionSpace(t *testing.T) (Snapshot, Delta) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 6*PageSize+301)
	rng.Read(data)
	a := NewAddressSpace()
	a.Mmap("app.text", UpperHalf, KindText, 64<<10)
	r := a.MmapWithData("state", UpperHalf, KindData, data)
	snap := a.CommitUpperHalf()
	rng.Read(data)
	mustWrite(t, a, r.Addr, 0, data)
	return snap, a.CommitUpperHalfDelta()
}

// TestVerifyCatchesCorruptionAtEveryPage damages one page at a time, at
// every page index, and the first n pages via CorruptSnapshot and
// CorruptDelta for every n: Snapshot.Verify and Delta.Verify must reject
// each damaged image.
func TestVerifyCatchesCorruptionAtEveryPage(t *testing.T) {
	snap, delta := corruptionSpace(t)
	if _, err := snap.Verify(); err != nil {
		t.Fatalf("clean snapshot failed verification: %v", err)
	}
	if _, err := delta.Verify(); err != nil {
		t.Fatalf("clean delta failed verification: %v", err)
	}
	state := len(snap.Regions) - 1
	pages := pageCount(uint64(len(snap.Regions[state].Data)))
	carried := len(delta.Regions[state].Pages)
	if carried != pages {
		t.Fatalf("delta carries %d pages, want all %d", carried, pages)
	}
	for n := 1; n <= pages; n++ {
		s := snap
		s.Regions = append([]Region(nil), snap.Regions...)
		if got := CorruptSnapshot(&s, n); got != n {
			t.Fatalf("CorruptSnapshot(%d) damaged %d pages", n, got)
		}
		if _, err := s.Verify(); err == nil {
			t.Errorf("Snapshot.Verify missed CorruptSnapshot of %d pages", n)
		}
		d := cloneDelta(delta)
		if got := CorruptDelta(&d, n); got != n {
			t.Fatalf("CorruptDelta(%d) damaged %d pages", n, got)
		}
		if _, err := d.Verify(); err == nil {
			t.Errorf("Delta.Verify missed CorruptDelta of %d pages", n)
		}
	}
	for p := 0; p < pages; p++ {
		s := snap
		s.Regions = append([]Region(nil), snap.Regions...)
		damaged := append([]byte(nil), s.Regions[state].Data...)
		damaged[p*PageSize+p] ^= 0xFF
		s.Regions[state].Data = damaged
		if _, err := s.Verify(); err == nil {
			t.Errorf("Snapshot.Verify missed a flip in page %d", p)
		}
		d := cloneDelta(delta)
		d.Regions[state].Pages[p].Data[p] ^= 0xFF
		if _, err := d.Verify(); err == nil {
			t.Errorf("Delta.Verify missed a flip in page %d", p)
		}
	}
}

// cloneDelta deep-copies a delta's page payloads so corrupting the copy
// leaves the original intact.
func cloneDelta(d Delta) Delta {
	out := d
	out.Regions = make([]RegionDelta, len(d.Regions))
	for i, rd := range d.Regions {
		rd.Pages = append([]PageDelta(nil), rd.Pages...)
		for j := range rd.Pages {
			rd.Pages[j].Data = append([]byte(nil), rd.Pages[j].Data...)
		}
		out.Regions[i] = rd
	}
	return out
}
