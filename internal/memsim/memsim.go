// Package memsim simulates the single-process address space that MANA's
// split-process technique manages.
//
// A real MANA process contains two programs: the upper half (the MPI
// application, its libc, heap and stack) and the lower half (a small
// bootstrap program that loads the MPI library and the network libraries).
// MANA's central trick is bookkeeping: it tags every memory region as
// belonging to one half so that, at checkpoint time, only upper-half
// regions are written to the image and the entire lower half is discarded.
//
// This package reproduces that bookkeeping. An AddressSpace holds Regions,
// each tagged with a Half and a Kind; it supports Mmap/Munmap/Sbrk with the
// same hazards the paper describes (sbrk after restart would grow the wrong
// program's data segment unless interposed, §2.1); and it produces
// Snapshots containing exactly the regions a checkpoint image must carry.
//
// Checkpoint cost is made proportional to touched memory, not address-space
// size, by page-granular (4 KiB) dirty tracking: every write path marks
// pages in a per-region dirty bitmap, CommitUpperHalf seals region contents
// copy-on-write (a clean region's snapshot aliases the last committed
// backing slice instead of being deep-copied), and CommitUpperHalfDelta
// (delta.go) emits only the dirty pages plus per-page content hashes.
// Region content digests are composed from the same per-page hashes and
// memoised page by page, so fingerprinting a live space rehashes only the
// pages written since its last digest.
package memsim

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// Half identifies which program of the split process owns a region.
type Half int

const (
	// UpperHalf is the MPI application: code, data, heap, stack,
	// environment, and its own copies of libc and (an uninitialised) MPI
	// library as link-time dependencies.
	UpperHalf Half = iota
	// LowerHalf is the ephemeral program: the bootstrap loader, the active
	// MPI library, network/driver libraries and any memory they map
	// (pinned buffers, driver shared memory).
	LowerHalf
)

// String returns the conventional name of the half.
func (h Half) String() string {
	switch h {
	case UpperHalf:
		return "upper"
	case LowerHalf:
		return "lower"
	default:
		return "invalid"
	}
}

// Kind classifies a region by its role. Kinds matter for the memory
// overhead accounting of §3.2.2 (duplicated text segments, driver shared
// memory growth) and for deciding how a region is restored.
type Kind int

const (
	KindText Kind = iota // program or library code
	KindData             // initialised/uninitialised data segments
	KindHeap             // sbrk- or mmap-grown heap
	KindStack
	KindSharedMem  // System V / driver shared memory
	KindPinned     // NIC-registered (pinned) buffers
	KindDriver     // memory-mapped device regions
	KindAnonymous  // other anonymous mappings
	KindEnviron    // environment and auxiliary vectors
	KindThreadLoc  // thread-local storage blocks
	KindCheckpoint // scratch regions used by the checkpoint helper itself
)

var kindNames = map[Kind]string{
	KindText:       "text",
	KindData:       "data",
	KindHeap:       "heap",
	KindStack:      "stack",
	KindSharedMem:  "shm",
	KindPinned:     "pinned",
	KindDriver:     "driver",
	KindAnonymous:  "anon",
	KindEnviron:    "environ",
	KindThreadLoc:  "tls",
	KindCheckpoint: "ckpt-scratch",
}

// String returns a short name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// ParseKind resolves a kind's short name ("text", "heap", ...) back to
// the Kind, for configuration surfaces keyed by region class.
func ParseKind(name string) (Kind, bool) {
	for k, s := range kindNames {
		if s == name {
			return k, true
		}
	}
	return 0, false
}

// KindNames returns every kind's short name in Kind order, for error
// messages listing the valid region classes.
func KindNames() []string {
	names := make([]string, 0, len(kindNames))
	for k := KindText; int(k) < len(kindNames); k++ {
		names = append(names, kindNames[k])
	}
	return names
}

// PageSize is the dirty-tracking granularity: the smallest unit of memory
// an incremental checkpoint copies, hashes and writes. It matches the
// x86-64 base page size the real MANA's mem-region scan operates on.
const PageSize = 4096

// Region is one contiguous mapping in the simulated address space.
type Region struct {
	// Name is a human-readable label, e.g. "libmpich.so.text" or
	// "[heap]".
	Name string
	// Half records which program of the split process owns the region.
	Half Half
	// Kind records the region's role.
	Kind Kind
	// Addr is the simulated start address.
	Addr uint64
	// Size is the region length in bytes.
	Size uint64
	// Data optionally carries the region's contents. Regions without
	// explicit contents (e.g. library text modelled only for size
	// accounting) checkpoint as zero-filled pages of length Size.
	Data []byte

	// dirty is the per-page dirty bitmap of the live region: bit i set
	// means page i has been written since the last committed snapshot.
	// Snapshot copies of a Region never carry a bitmap.
	dirty []uint64
	// sealed is the region's content at the last committed snapshot. It
	// is immutable once captured — committed snapshots alias it, writes
	// go to Data — so a clean region's next snapshot needs no copy.
	sealed []byte
	// hasSeal reports whether sealed is meaningful (a nil sealed slice is
	// a valid seal for a region whose contents were never materialised).
	hasSeal bool
	// sealShared reports whether some snapshot aliases sealed. A shared
	// seal is immutable (delta commits must replace it); an unshared one
	// can be patched in place, keeping delta commit copies O(dirty bytes).
	sealShared bool
	// hash memoises the region's content digest; hashOK is cleared by
	// every mutation so Fingerprint never re-hashes clean regions.
	hash   uint64
	hashOK bool
	// pageHashes memoises pageHash of every materialised page of Data;
	// the region digest is folded from them. stale is the per-page "hash
	// stale" bitmap: every write path sets it alongside the dirty bitmap,
	// but only rehashing clears it (commits leave it alone), so
	// contentHashNow rehashes exactly the pages written since the last
	// digest. pagesOK is false while the memo must be rebuilt whole
	// (newborn, materialised, resized or restored regions).
	pageHashes []uint64
	stale      []uint64
	pagesOK    bool
}

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Addr + r.Size }

// pageCount returns the number of PageSize pages covering n bytes.
func pageCount(n uint64) int { return int((n + PageSize - 1) / PageSize) }

// markDirty sets the dirty bits for the byte range [off, off+n).
func (r *Region) markDirty(off, n uint64) {
	if n == 0 {
		return
	}
	r.ensureBitmap()
	if len(r.stale) != len(r.dirty) {
		grown := make([]uint64, len(r.dirty))
		copy(grown, r.stale)
		r.stale = grown
	}
	first := int(off / PageSize)
	last := int((off + n - 1) / PageSize)
	for p := first; p <= last; p++ {
		r.dirty[p/64] |= 1 << (uint(p) % 64)
		r.stale[p/64] |= 1 << (uint(p) % 64)
	}
	r.hashOK = false
}

// markAllDirty sets every page's dirty bit (newborn or resized regions).
func (r *Region) markAllDirty() {
	r.dirty = nil
	r.ensureBitmap()
	for i := range r.dirty {
		r.dirty[i] = ^uint64(0)
	}
	// Mask the bits past the last page so popcounts stay exact.
	if extra := uint(pageCount(r.Size)) % 64; extra != 0 && len(r.dirty) > 0 {
		r.dirty[len(r.dirty)-1] = (1 << extra) - 1
	}
	r.hashOK = false
	r.pagesOK = false
}

func (r *Region) ensureBitmap() {
	if words := (pageCount(r.Size) + 63) / 64; len(r.dirty) != words {
		grown := make([]uint64, words)
		copy(grown, r.dirty)
		r.dirty = grown
	}
}

func (r *Region) clearDirty() {
	for i := range r.dirty {
		r.dirty[i] = 0
	}
}

func (r *Region) anyDirty() bool {
	for _, w := range r.dirty {
		if w != 0 {
			return true
		}
	}
	return false
}

// dirtyPages returns the dirty page indices in ascending order — the
// deterministic iteration order every delta payload is built in.
func (r *Region) dirtyPages() []int {
	var out []int
	for w, word := range r.dirty {
		for ; word != 0; word &= word - 1 {
			out = append(out, w*64+bits.TrailingZeros64(word))
		}
	}
	return out
}

// isClean reports whether the region's contents are bit-identical to its
// last committed seal, so a snapshot may alias the sealed slice.
func (r *Region) isClean() bool { return r.hasSeal && !r.anyDirty() }

// invalidateSeal forgets the committed seal (used when the region is
// resized: page indices no longer line up with the sealed content, so the
// next delta must carry the region in full).
func (r *Region) invalidateSeal() {
	r.sealed = nil
	r.hasSeal = false
	r.sealShared = false
	r.markAllDirty()
}

// clone returns a deep copy of the region's checkpointable state
// (metadata and contents); the live-space tracking fields (dirty bitmap,
// seal, hash memo) deliberately do not travel with the copy.
func (r *Region) clone() Region {
	c := Region{Name: r.Name, Half: r.Half, Kind: r.Kind, Addr: r.Addr, Size: r.Size}
	if r.Data != nil {
		c.Data = make([]byte, len(r.Data))
		copy(c.Data, r.Data)
	}
	return c
}

// The content digest is an FNV-style hash applied a 64-bit word at a
// time. hashOffset and hashPrime are the FNV-64 offset basis and prime.
const (
	hashOffset = 14695981039346656037
	hashPrime  = 1099511628211
)

// mixWord folds one 64-bit word into a running digest.
func mixWord(h, w uint64) uint64 { return (h ^ w) * hashPrime }

// pageHash digests one page's contents: h = (h ^ word) * prime over the
// little-endian uint64 words, then byte-wise over a tail shorter than a
// word. It is the only content hash in the package — live page memos,
// memo-free fingerprints, snapshot and delta verification, ApplyDelta and
// PageDelta.Hash all use it. A change confined to one word (so any
// single-byte flip) can never collide: each xor-multiply step is a
// bijection on uint64 (xor with a fixed word is invertible and the prime
// is odd, so multiplication by it is invertible mod 2^64), hence the
// states after the changed step differ and every later step preserves
// the difference. The same argument covers the byte-wise tail, and the
// region digest, where a changed page is one changed word of the fold.
func pageHash(data []byte) uint64 {
	h := uint64(hashOffset)
	for ; len(data) >= 8; data = data[8:] {
		h = mixWord(h, binary.LittleEndian.Uint64(data))
	}
	for _, b := range data {
		h = mixWord(h, uint64(b))
	}
	return h
}

// layoutHash starts a region digest from its layout metadata: name,
// half, kind, address, size and materialised data length. The page
// digests of the contents are then folded in with mixWord, in page order.
func layoutHash(name string, half Half, kind Kind, addr, size, dataLen uint64) uint64 {
	h := mixWord(hashOffset, uint64(len(name)))
	for i := 0; i < len(name); i++ {
		h = mixWord(h, uint64(name[i]))
	}
	for _, w := range [...]uint64{uint64(half), uint64(kind), addr, size, dataLen} {
		h = mixWord(h, w)
	}
	return h
}

// contentHash digests one region's checkpointable state from its bytes:
// the layout metadata composed with the pageHash of every PageSize page
// of data (the last page may be short). It allocates nothing and uses no
// memo; contentHashNow returns the same value from a region's live page
// memo, rehashing only the pages written since its last digest.
func contentHash(name string, half Half, kind Kind, addr, size uint64, data []byte) uint64 {
	h := layoutHash(name, half, kind, addr, size, uint64(len(data)))
	for off := 0; off < len(data); off += PageSize {
		h = mixWord(h, pageHash(data[off:min(off+PageSize, len(data))]))
	}
	return h
}

// pageData returns the materialised bytes of page idx of the live region.
func (r *Region) pageData(idx int) []byte {
	start, end := pageExtent(idx, uint64(len(r.Data)))
	return r.Data[start:end]
}

// contentHashNow returns the region's memoised content digest,
// contentHash of its current state. A stale digest is refreshed by
// rehashing only the stale pages (or every page when the memo was
// invalidated whole) and refolding the page digests.
func (r *Region) contentHashNow() uint64 {
	if r.hashOK {
		return r.hash
	}
	n := pageCount(uint64(len(r.Data)))
	if !r.pagesOK || len(r.pageHashes) != n {
		if cap(r.pageHashes) < n {
			r.pageHashes = make([]uint64, n)
		}
		r.pageHashes = r.pageHashes[:n]
		for i := range r.pageHashes {
			r.pageHashes[i] = pageHash(r.pageData(i))
		}
		r.pagesOK = true
	} else {
		for w, word := range r.stale {
			for ; word != 0; word &= word - 1 {
				if p := w*64 + bits.TrailingZeros64(word); p < n {
					r.pageHashes[p] = pageHash(r.pageData(p))
				}
			}
		}
	}
	clear(r.stale)
	h := layoutHash(r.Name, r.Half, r.Kind, r.Addr, r.Size, uint64(len(r.Data)))
	for _, ph := range r.pageHashes {
		h = mixWord(h, ph)
	}
	r.hash, r.hashOK = h, true
	return h
}

// storePageHash records a page digest computed elsewhere (the delta
// capture path) in the live memo, so the next digest need not rehash it.
// It is a no-op while the memo awaits a whole rebuild.
func (r *Region) storePageHash(idx int, h uint64) {
	if !r.pagesOK || idx >= len(r.pageHashes) {
		return
	}
	r.pageHashes[idx] = h
	if w := idx / 64; w < len(r.stale) {
		r.stale[w] &^= 1 << (uint(idx) % 64)
	}
}

// Layout constants for the simulated address space. The exact values are
// arbitrary; they only need to keep the halves disjoint, mirroring how the
// real MANA reserves distinct address ranges for the lower half.
const (
	upperBase     = 0x0000_4000_0000_0000
	lowerBase     = 0x0000_7000_0000_0000
	mmapAlignment = 4096
)

// AddressSpace is the simulated process memory map. It is safe for
// concurrent use; the checkpoint helper thread reads it while the
// application allocates.
type AddressSpace struct {
	mu          sync.RWMutex
	regions     map[uint64]*Region // keyed by start address
	nextUpper   uint64
	nextLower   uint64
	brk         uint64 // simulated program break (upper-half data segment end)
	brkBase     uint64
	sbrkInter   bool // MANA's sbrk interposition active
	postRestart bool // true once the space has been rebuilt from an image
	// gen counts committed snapshot generations (CommitUpperHalf and
	// CommitUpperHalfDelta); deltas are always relative to generation gen.
	gen uint64
	// pool optionally recycles live-region Data buffers across address-
	// space lifetimes (see Pool); nil means plain make allocation.
	pool *Pool
}

// NewAddressSpace returns an empty address space with MANA's sbrk
// interposition enabled (the default when running under MANA).
func NewAddressSpace() *AddressSpace {
	return NewAddressSpacePooled(nil)
}

// NewAddressSpacePooled returns an empty address space whose region
// backing buffers are drawn from (and returned to, via Release) the
// given pool. A nil pool is equivalent to NewAddressSpace.
func NewAddressSpacePooled(pool *Pool) *AddressSpace {
	return &AddressSpace{
		regions:   make(map[uint64]*Region),
		nextUpper: upperBase,
		nextLower: lowerBase,
		brkBase:   upperBase,
		brk:       upperBase,
		sbrkInter: true,
		pool:      pool,
	}
}

// allocData returns a zeroed n-byte buffer for live-region contents,
// recycled from the pool when one is attached.
func (a *AddressSpace) allocData(n int) []byte {
	if a.pool != nil {
		return a.pool.get(n)
	}
	return make([]byte, n)
}

// Release returns every live region's uniquely-owned Data buffer to the
// attached pool and empties the address space. Seals and snapshot
// payloads are never recycled — committed checkpoint images alias them
// and must stay immutable. The space must not be used after Release;
// callers that captured Regions()/Lookup() copies keep them (those are
// deep copies). Without an attached pool Release only empties the map.
func (a *AddressSpace) Release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pool != nil {
		for _, r := range a.regions {
			if r.Data != nil {
				a.pool.put(r.Data)
				r.Data = nil
			}
		}
	}
	clear(a.regions)
}

// SetSbrkInterposition enables or disables MANA's interposition on sbrk.
// Disabling it exposes the §2.1 hazard, which the tests exercise.
func (a *AddressSpace) SetSbrkInterposition(on bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sbrkInter = on
}

// SbrkInterposed reports whether sbrk interposition is enabled.
func (a *AddressSpace) SbrkInterposed() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.sbrkInter
}

// MarkPostRestart records that the address space has been reconstructed
// from a checkpoint image, which changes sbrk behaviour (the kernel's brk
// now refers to the bootstrap program).
func (a *AddressSpace) MarkPostRestart() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.postRestart = true
}

// PostRestart reports whether the space was rebuilt from an image.
func (a *AddressSpace) PostRestart() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.postRestart
}

func align(n uint64) uint64 {
	if rem := n % mmapAlignment; rem != 0 {
		n += mmapAlignment - rem
	}
	return n
}

// Mmap creates a new region in the given half and returns it. Size is
// rounded up to the page size.
func (a *AddressSpace) Mmap(name string, half Half, kind Kind, size uint64) *Region {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mmapLocked(name, half, kind, size)
}

func (a *AddressSpace) mmapLocked(name string, half Half, kind Kind, size uint64) *Region {
	size = align(size)
	var addr uint64
	switch half {
	case UpperHalf:
		addr = a.nextUpper
		a.nextUpper += size + mmapAlignment
	case LowerHalf:
		addr = a.nextLower
		a.nextLower += size + mmapAlignment
	default:
		panic(fmt.Sprintf("memsim: invalid half %d", half))
	}
	r := &Region{Name: name, Half: half, Kind: kind, Addr: addr, Size: size}
	// A newborn region is entirely dirty: the next incremental snapshot
	// must carry it whole (there is no committed base to delta against).
	r.markAllDirty()
	a.regions[addr] = r
	return r
}

// MmapWithData creates a region initialised with the given contents.
func (a *AddressSpace) MmapWithData(name string, half Half, kind Kind, data []byte) *Region {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.mmapLocked(name, half, kind, uint64(len(data)))
	r.Data = a.allocData(len(data))
	copy(r.Data, data)
	return r
}

// Munmap removes the region starting at addr. It reports whether a region
// was found.
func (a *AddressSpace) Munmap(addr uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.regions[addr]; !ok {
		return false
	}
	delete(a.regions, addr)
	return true
}

// UnmapHalf removes every region belonging to the given half and returns
// the number of bytes released. MANA uses this to discard the lower half
// before restoring a checkpoint image, and to model the "ephemeral" MPI
// library.
func (a *AddressSpace) UnmapHalf(half Half) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var released uint64
	for addr, r := range a.regions {
		if r.Half == half {
			released += r.Size
			delete(a.regions, addr)
		}
	}
	return released
}

// SbrkResult describes the outcome of a heap-growth request.
type SbrkResult struct {
	// Region is the upper-half region that satisfied the request (either
	// the grown data segment or a fresh mmap).
	Region *Region
	// UsedMmap reports whether the request was redirected to mmap by
	// MANA's interposition.
	UsedMmap bool
	// CorruptedLowerHalf reports that, without interposition and after
	// restart, the kernel grew the lower-half program's data segment —
	// the hazard §2.1 describes.
	CorruptedLowerHalf bool
}

// Sbrk grows the heap by delta bytes and reports how the request was
// satisfied.
func (a *AddressSpace) Sbrk(delta uint64) SbrkResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sbrkInter {
		r := a.mmapLocked("[heap-mmap]", UpperHalf, KindHeap, delta)
		return SbrkResult{Region: r, UsedMmap: true}
	}
	if a.postRestart {
		// The kernel's brk refers to the bootstrap (lower-half) program.
		r := a.mmapLocked("[lower-brk-growth]", LowerHalf, KindData, delta)
		return SbrkResult{Region: r, CorruptedLowerHalf: true}
	}
	// Pre-checkpoint, the brk belongs to the original upper-half program.
	r := a.mmapLocked("[heap]", UpperHalf, KindHeap, delta)
	a.brk += align(delta)
	return SbrkResult{Region: r}
}

// SbrkShrink releases up to delta bytes from the top of the upper-half
// heap (most recently allocated heap regions first, mirroring how a real
// brk retreats) and returns the number of bytes actually released. A
// region shrunk partially keeps its address but loses its tail; its dirty
// bitmap and committed seal are reset so the next incremental snapshot
// carries the resized region in full — page indices no longer line up
// with the old seal, so deltas against it would be unsound.
func (a *AddressSpace) SbrkShrink(delta uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	heaps := make([]*Region, 0, 4)
	for _, r := range a.regions {
		if r.Half == UpperHalf && r.Kind == KindHeap {
			heaps = append(heaps, r)
		}
	}
	sort.Slice(heaps, func(i, j int) bool { return heaps[i].Addr > heaps[j].Addr })
	var released uint64
	for _, r := range heaps {
		if delta == 0 {
			break
		}
		if delta >= r.Size {
			delta -= r.Size
			released += r.Size
			delete(a.regions, r.Addr)
			continue
		}
		r.Size -= delta
		if uint64(len(r.Data)) > r.Size {
			r.Data = r.Data[:r.Size]
		}
		r.invalidateSeal()
		released += delta
		delta = 0
	}
	if a.brk > a.brkBase+released {
		a.brk -= released
	} else if a.brk > a.brkBase {
		a.brk = a.brkBase
	}
	return released
}

// Regions returns a snapshot slice of all regions sorted by address.
func (a *AddressSpace) Regions() []Region {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Region, 0, len(a.regions))
	for _, r := range a.regions {
		out = append(out, r.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// RegionsOf returns the regions belonging to one half, sorted by address.
func (a *AddressSpace) RegionsOf(half Half) []Region {
	all := a.Regions()
	out := all[:0]
	for _, r := range all {
		if r.Half == half {
			out = append(out, r)
		}
	}
	return out
}

// BytesOf returns the total size in bytes of all regions in one half.
func (a *AddressSpace) BytesOf(half Half) uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var total uint64
	for _, r := range a.regions {
		if r.Half == half {
			total += r.Size
		}
	}
	return total
}

// BytesOfKind returns the total size of regions of a given half and kind.
func (a *AddressSpace) BytesOfKind(half Half, kind Kind) uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var total uint64
	for _, r := range a.regions {
		if r.Half == half && r.Kind == kind {
			total += r.Size
		}
	}
	return total
}

// Lookup returns the region starting at addr, if any.
func (a *AddressSpace) Lookup(addr uint64) (Region, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	r, ok := a.regions[addr]
	if !ok {
		return Region{}, false
	}
	return r.clone(), true
}

// Write stores data into the region starting at addr at the given offset.
// It returns an error if the region does not exist or the write would
// overflow it.
func (a *AddressSpace) Write(addr uint64, offset uint64, data []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	r, ok := a.regions[addr]
	if !ok {
		return fmt.Errorf("memsim: write to unmapped region 0x%x", addr)
	}
	if offset+uint64(len(data)) > r.Size {
		return fmt.Errorf("memsim: write of %d bytes at offset %d overflows region %q (size %d)",
			len(data), offset, r.Name, r.Size)
	}
	if r.Data == nil {
		r.Data = a.allocData(int(r.Size))
		// Materialising the backing store changes the region's recorded
		// data length, which is part of the checkpointable state; the
		// whole region must reach the next incremental image.
		r.markAllDirty()
	} else if uint64(len(r.Data)) < r.Size {
		grown := a.allocData(int(r.Size))
		copy(grown, r.Data)
		if a.pool != nil {
			a.pool.put(r.Data)
		}
		r.Data = grown
		r.markAllDirty()
	}
	copy(r.Data[offset:], data)
	r.markDirty(offset, uint64(len(data)))
	return nil
}

// Read copies length bytes from the region starting at addr at offset.
func (a *AddressSpace) Read(addr uint64, offset uint64, length uint64) ([]byte, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	r, ok := a.regions[addr]
	if !ok {
		return nil, fmt.Errorf("memsim: read from unmapped region 0x%x", addr)
	}
	if offset+length > r.Size {
		return nil, fmt.Errorf("memsim: read of %d bytes at offset %d overflows region %q (size %d)",
			length, offset, r.Name, r.Size)
	}
	out := make([]byte, length)
	if r.Data != nil {
		end := offset + length
		if end > uint64(len(r.Data)) {
			end = uint64(len(r.Data))
		}
		if offset < end {
			copy(out, r.Data[offset:end])
		}
	}
	return out, nil
}

// Snapshot is the set of regions a checkpoint image carries: exactly the
// upper-half regions (the lower half is discarded).
type Snapshot struct {
	Regions []Region
	// Brk is the saved program break so heap state can be restored.
	Brk uint64
	// RegionHashes optionally memoises the per-region content digests
	// (parallel to Regions) captured from the address space's hash cache.
	// Fingerprint uses them when present and recomputes when absent; the
	// digest of a snapshot is identical either way. Equal ignores them.
	RegionHashes []uint64
}

// sortedUpperLocked returns the live upper-half regions in ascending
// address order — the only iteration order capture paths ever use, so map
// order never leaks into images, deltas or fingerprints.
func (a *AddressSpace) sortedUpperLocked() []*Region {
	out := make([]*Region, 0, len(a.regions))
	for _, r := range a.regions {
		if r.Half == UpperHalf {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(x, y *Region) int { return cmp.Compare(x.Addr, y.Addr) })
	return out
}

// captureLocked builds a full snapshot. Clean regions — unchanged since
// the last commit — alias the immutable sealed slice instead of being
// deep-copied, so steady-state capture cost is proportional to dirty
// bytes. When commit is set, freshly copied contents become the new seal
// and the dirty bitmaps are cleared: the snapshot is the new base every
// later delta is relative to.
func (a *AddressSpace) captureLocked(commit bool) Snapshot {
	upper := a.sortedUpperLocked()
	snap := Snapshot{
		Brk:          a.brk,
		Regions:      make([]Region, 0, len(upper)),
		RegionHashes: make([]uint64, 0, len(upper)),
	}
	for _, r := range upper {
		var data []byte
		if r.isClean() {
			data = r.sealed
			r.sealShared = true
		} else {
			if r.Data != nil {
				data = make([]byte, len(r.Data))
				copy(data, r.Data)
			}
			if commit {
				r.sealed = data
				r.hasSeal = true
				r.sealShared = true
				r.clearDirty()
			}
		}
		c := Region{Name: r.Name, Half: r.Half, Kind: r.Kind, Addr: r.Addr, Size: r.Size, Data: data}
		snap.Regions = append(snap.Regions, c)
		snap.RegionHashes = append(snap.RegionHashes, r.contentHashNow())
	}
	if commit {
		a.gen++
	}
	return snap
}

// SnapshotUpperHalf captures all upper-half regions without committing:
// the dirty bitmaps and seals are left untouched, so observing the space
// (reports, final fingerprints) never perturbs incremental checkpointing.
// Regions clean against the last commit alias the sealed contents.
func (a *AddressSpace) SnapshotUpperHalf() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.captureLocked(false)
}

// CommitUpperHalf captures all upper-half regions and seals the result as
// the new committed generation: dirty bitmaps are cleared and the next
// delta (CommitUpperHalfDelta) is relative to this snapshot. This is what
// MANA's checkpoint helper writes to a full image file.
func (a *AddressSpace) CommitUpperHalf() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.captureLocked(true)
}

// Generation returns the number of committed snapshots (full or delta)
// taken of this space. Zero means no base exists yet, so an incremental
// capture must fall back to a full one.
func (a *AddressSpace) Generation() uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.gen
}

// DirtyPages returns the dirty page indices of the region at addr, in
// ascending order, and whether the region exists. Tests and diagnostics
// use it to observe the bitmap without capturing.
func (a *AddressSpace) DirtyPages(addr uint64) ([]int, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	r, ok := a.regions[addr]
	if !ok {
		return nil, false
	}
	return r.dirtyPages(), true
}

// TotalBytes returns the number of bytes of memory captured by the
// snapshot; this is the per-rank checkpoint image payload size.
func (s Snapshot) TotalBytes() uint64 {
	var total uint64
	for _, r := range s.Regions {
		total += r.Size
	}
	return total
}

// fingerprintStart begins a snapshot digest from the program break and
// the region count; the region digests are then folded in with mixWord,
// in address order.
func fingerprintStart(brk uint64, regions int) uint64 {
	return mixWord(mixWord(hashOffset, brk), uint64(regions))
}

// Fingerprint returns a deterministic 64-bit digest of the snapshot:
// region layout, tags and contents all contribute. Two snapshots are
// Equal iff their fingerprints match (up to hash collision), so restart
// determinism checks and simulation reports can compare images cheaply
// without carrying full region contents around. It folds the per-region
// digests, each the region's layout composed with the pageHash of every
// page. It reuses the memoised RegionHashes when the capture filled them
// in and otherwise recomputes every page from the bytes; the digest is
// identical either way, because the per-region function is the same.
func (s Snapshot) Fingerprint() uint64 {
	h := fingerprintStart(s.Brk, len(s.Regions))
	memoised := len(s.RegionHashes) == len(s.Regions)
	for i := range s.Regions {
		if memoised {
			h = mixWord(h, s.RegionHashes[i])
			continue
		}
		r := &s.Regions[i]
		h = mixWord(h, contentHash(r.Name, r.Half, r.Kind, r.Addr, r.Size, r.Data))
	}
	return h
}

// Fingerprint returns exactly SnapshotUpperHalf().Fingerprint() without
// capturing: it folds the live regions' memoised digests under the lock,
// copying no region contents and leaving dirty bitmaps and seals alone,
// so observing the space never perturbs incremental checkpointing.
func (a *AddressSpace) Fingerprint() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	upper := a.sortedUpperLocked()
	h := fingerprintStart(a.brk, len(upper))
	for _, r := range upper {
		h = mixWord(h, r.contentHashNow())
	}
	return h
}

// RestoreUpperHalf rebuilds the upper half of the address space from a
// snapshot. Existing upper-half regions are discarded first (the restore
// happens into the bootstrap program's address space, whose upper half is
// empty apart from the restore stub). Lower-half regions are untouched:
// they belong to the freshly initialised MPI library.
func (a *AddressSpace) RestoreUpperHalf(s Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for addr, r := range a.regions {
		if r.Half == UpperHalf {
			delete(a.regions, addr)
		}
	}
	maxEnd := uint64(upperBase)
	for i := range s.Regions {
		// Restored regions deep-copy the image contents into fresh live
		// buffers (the image must stay immutable) and start entirely
		// dirty with no seal: restart begins a new incremental chain.
		src := &s.Regions[i]
		c := Region{Name: src.Name, Half: src.Half, Kind: src.Kind, Addr: src.Addr, Size: src.Size}
		if src.Data != nil {
			c.Data = a.allocData(len(src.Data))
			copy(c.Data, src.Data)
		}
		c.markAllDirty()
		if len(s.RegionHashes) == len(s.Regions) {
			c.hash, c.hashOK = s.RegionHashes[i], true
		}
		a.regions[c.Addr] = &c
		if c.End() > maxEnd {
			maxEnd = c.End()
		}
	}
	if a.nextUpper < maxEnd+mmapAlignment {
		a.nextUpper = maxEnd + mmapAlignment
	}
	a.brk = s.Brk
	a.postRestart = true
	// The restored space has no committed generation: the first capture
	// after restart is necessarily a full image.
	a.gen = 0
}

// Equal reports whether two snapshots describe identical upper-half memory
// (same regions, same contents). Used by tests to prove checkpoint/restore
// round-trips are lossless.
func (s Snapshot) Equal(o Snapshot) bool {
	if len(s.Regions) != len(o.Regions) || s.Brk != o.Brk {
		return false
	}
	for i := range s.Regions {
		a, b := s.Regions[i], o.Regions[i]
		if a.Addr != b.Addr || a.Size != b.Size || a.Half != b.Half || a.Kind != b.Kind || a.Name != b.Name {
			return false
		}
		if len(a.Data) != len(b.Data) {
			return false
		}
		for j := range a.Data {
			if a.Data[j] != b.Data[j] {
				return false
			}
		}
	}
	return true
}
