package memsim

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// rankLikeSpace builds an address space shaped like one simulated rank's
// upper half: several contentless text/stack mappings plus one 64 KiB
// materialised state region — the layout whose snapshot cost the
// checkpoint path pays per rank per checkpoint.
func rankLikeSpace() (*AddressSpace, uint64) {
	a := NewAddressSpace()
	a.Mmap("app.text", UpperHalf, KindText, 2<<20)
	a.Mmap("app.data", UpperHalf, KindData, 512<<10)
	a.Mmap("libc.text", UpperHalf, KindText, 1800<<10)
	a.Mmap("libmpi.text(link)", UpperHalf, KindText, 4<<20)
	a.Mmap("[stack]", UpperHalf, KindStack, 256<<10)
	state := a.MmapWithData("app.state", UpperHalf, KindData, make([]byte, 64<<10))
	a.Mmap("libmpi.so(active)", LowerHalf, KindText, 4<<20)
	return a, state.Addr
}

// benchCapture measures the steady-state capture loop — one small write,
// one capture — and asserts an allocation ceiling per op. With the
// copy-on-write seal the only per-op copies are the dirtied region (full
// mode) or its dirty pages (delta mode) plus a handful of snapshot
// slices; a regression that re-deep-copies clean regions fails the
// assertion instead of silently shifting the numbers.
func benchCapture(b *testing.B, maxAllocsPerOp float64, capture func(a *AddressSpace) uint64) {
	a, state := rankLikeSpace()
	a.CommitUpperHalf() // seal the initial generation
	payload := make([]byte, 16)
	var sink uint64
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	startAllocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the contents per iteration so dedup cannot drop the page:
		// the benchmark models a page whose value genuinely changed.
		binary.LittleEndian.PutUint64(payload, uint64(i)+1)
		off := uint64(i%8) * PageSize
		if err := a.Write(state, off, payload); err != nil {
			b.Fatal(err)
		}
		sink += capture(a)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	if perOp := float64(ms.Mallocs-startAllocs) / float64(b.N); perOp > maxAllocsPerOp {
		b.Errorf("capture allocations = %.1f/op, want <= %.1f/op (clean regions must not be re-copied)",
			perOp, maxAllocsPerOp)
	}
	if sink == 0 {
		b.Fatal("captures carried no bytes")
	}
	b.ReportMetric(float64(sink)/float64(b.N), "image-bytes/op")
}

// BenchmarkSnapshotUpperHalf pins the full-capture path: only the one
// dirtied region is copied per op, the clean regions alias their seals.
func BenchmarkSnapshotUpperHalf(b *testing.B) {
	benchCapture(b, 12, func(a *AddressSpace) uint64 {
		return a.CommitUpperHalf().TotalBytes()
	})
}

// BenchmarkSnapshotUpperHalfDelta pins the incremental path: per-op work
// is one dirty page copied and hashed, independent of address-space size.
func BenchmarkSnapshotUpperHalfDelta(b *testing.B) {
	benchCapture(b, 12, func(a *AddressSpace) uint64 {
		return a.CommitUpperHalfDelta().PayloadBytes()
	})
}

// BenchmarkPageHash measures the word-at-a-time page digest on one full
// page; SetBytes makes the MB/s column the hashing throughput.
func BenchmarkPageHash(b *testing.B) {
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(i * 7)
	}
	b.SetBytes(PageSize)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += pageHash(page)
	}
	if sink == 0 {
		b.Fatal("page hashes summed to zero")
	}
}

// BenchmarkFingerprintUpperHalf pins the copy-free live fingerprint: per
// op one page of the rank-like space is dirtied and the space is
// fingerprinted, which rehashes that one page and refolds the memoised
// digests. The allocation ceiling fails a regression that copies region
// contents or reallocates the page memo per fingerprint.
func BenchmarkFingerprintUpperHalf(b *testing.B) {
	a, state := rankLikeSpace()
	a.Fingerprint() // build the page memo once
	payload := make([]byte, 16)
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	startAllocs := ms.Mallocs
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(payload, uint64(i)+1)
		if err := a.Write(state, uint64(i%16)*PageSize, payload); err != nil {
			b.Fatal(err)
		}
		sink ^= a.Fingerprint()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	const maxAllocsPerOp = 2
	if perOp := float64(ms.Mallocs-startAllocs) / float64(b.N); perOp > maxAllocsPerOp {
		b.Errorf("fingerprint allocations = %.1f/op, want <= %d/op (no content copies, memo reused)",
			perOp, maxAllocsPerOp)
	}
	if sink == 0 {
		b.Fatal("fingerprints folded to zero")
	}
}
