package memsim

import (
	"bytes"
	"fmt"
)

// PageDelta is one dirty page carried by an incremental snapshot.
type PageDelta struct {
	// Index is the page's index within its region (offset Index*PageSize).
	Index int
	// Hash is the pageHash of the page's contents — the same word-at-a-
	// time digest the region content hashes are composed from — used for
	// the checkpoint fingerprint and for Delta.Verify.
	Hash uint64
	// Data is the page's contents, clipped to the region's recorded data
	// length (the last page of a partially materialised region is short).
	Data []byte
}

// RegionDelta describes one live upper-half region in an incremental
// snapshot: full layout metadata (so the overlay can create, resize and
// drop regions) plus only the dirty, non-deduplicated pages.
type RegionDelta struct {
	Name string
	Half Half
	Kind Kind
	Addr uint64
	Size uint64
	// DataLen is the region's materialised content length (len(Data) on
	// the live region). It is part of the checkpointable state: Equal and
	// Fingerprint distinguish a zero-filled region from a materialised
	// one, so the overlay must reproduce it exactly.
	DataLen uint64
	// Pages holds the dirty pages whose content changed since the base
	// generation, sorted by ascending Index.
	Pages []PageDelta
}

// Delta is an incremental snapshot: everything needed to reconstruct a
// full Snapshot by overlaying it onto the base generation it was captured
// against. Regions absent from the delta were unmapped since the base and
// are dropped by the overlay; regions present but without a matching base
// region were created since and are rebuilt from metadata plus pages.
type Delta struct {
	// BaseGen is the committed generation this delta is relative to;
	// applying it to any other generation is unsound.
	BaseGen uint64
	Brk     uint64
	Regions []RegionDelta

	// ScannedPages counts every upper-half page whose dirty bit was
	// inspected — the page-table-scan cost of the capture.
	ScannedPages int
	// DirtyPages / DirtyBytes count the pages (and their content bytes)
	// marked dirty since the base, before dedup.
	DirtyPages int
	DirtyBytes uint64
	// DedupBytes counts dirty page bytes dropped because their contents
	// were bit-identical to the base generation (pages rewritten with the
	// same values). The pipeline reports DedupBytes/DirtyBytes as the
	// dedup ratio.
	DedupBytes uint64
}

// PayloadBytes returns the page content bytes the delta carries — the
// quantity an incremental image write is charged for.
func (d Delta) PayloadBytes() uint64 {
	var total uint64
	for _, rd := range d.Regions {
		for _, p := range rd.Pages {
			total += uint64(len(p.Data))
		}
	}
	return total
}

// FullBytes returns what a full snapshot of the same layout would have
// carried (the sum of region sizes), for full-vs-incremental reporting.
func (d Delta) FullBytes() uint64 {
	var total uint64
	for _, rd := range d.Regions {
		total += rd.Size
	}
	return total
}

// pageExtent returns the [start, end) byte range of page idx clipped to
// dataLen; start >= end means the page has no materialised content.
func pageExtent(idx int, dataLen uint64) (uint64, uint64) {
	start := uint64(idx) * PageSize
	end := start + PageSize
	if end > dataLen {
		end = dataLen
	}
	return start, end
}

// CommitUpperHalfDelta captures an incremental snapshot — only the pages
// dirtied since the last committed generation, plus layout metadata for
// every live upper-half region — and seals the current contents as the
// new committed generation, exactly as CommitUpperHalf does. Dirty pages
// whose contents are bit-identical to the base (rewritten with the same
// values) are deduplicated: the overlay falls back to the base content
// for any page the delta does not carry, so dropping them is lossless (up
// to the 64-bit comparison being an exact bytes.Equal, not a hash check).
//
// Determinism rules: regions are ordered by ascending address, pages by
// ascending index; map iteration order never reaches the payload.
//
// The call panics if no generation has been committed yet: the first
// capture of a space must be a full CommitUpperHalf.
func (a *AddressSpace) CommitUpperHalfDelta() Delta {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.gen == 0 {
		panic("memsim: incremental capture with no committed base generation")
	}
	d := Delta{BaseGen: a.gen, Brk: a.brk}
	for _, r := range a.sortedUpperLocked() {
		rd := RegionDelta{
			Name: r.Name, Half: r.Half, Kind: r.Kind,
			Addr: r.Addr, Size: r.Size, DataLen: uint64(len(r.Data)),
		}
		d.ScannedPages += pageCount(r.Size)
		dirty := r.dirtyPages()
		for _, idx := range dirty {
			start, end := pageExtent(idx, rd.DataLen)
			if start >= end {
				continue
			}
			cur := r.Data[start:end]
			d.DirtyPages++
			d.DirtyBytes += end - start
			if r.hasSeal && end <= uint64(len(r.sealed)) && bytes.Equal(cur, r.sealed[start:end]) {
				d.DedupBytes += end - start
				continue
			}
			page := PageDelta{Index: idx, Hash: pageHash(cur), Data: make([]byte, len(cur))}
			copy(page.Data, cur)
			rd.Pages = append(rd.Pages, page)
			r.storePageHash(idx, page.Hash)
		}
		d.Regions = append(d.Regions, rd)
		// Seal the region at its current contents: the next delta is
		// relative to this generation. Clean regions keep their seal
		// (and their memoised hash) untouched. A seal no snapshot aliases
		// is patched in place — only the dirty extents are copied — so
		// steady-state delta commits copy O(dirty bytes), not O(region).
		if !r.isClean() {
			switch {
			case r.hasSeal && !r.sealShared && len(r.sealed) == len(r.Data):
				for _, idx := range dirty {
					start, end := pageExtent(idx, rd.DataLen)
					if start < end {
						copy(r.sealed[start:end], r.Data[start:end])
					}
				}
			case r.Data != nil:
				sealed := make([]byte, len(r.Data))
				copy(sealed, r.Data)
				r.sealed = sealed
				r.sealShared = false
			default:
				r.sealed = nil
				r.sealShared = false
			}
			r.hasSeal = true
			r.clearDirty()
			// The region digest stays invalidated: folding it here would
			// add work to the capture path that only a fingerprint needs.
			// The page digests computed above are already in the memo, so
			// the next fingerprint rehashes only the deduplicated pages.
		}
	}
	a.gen++
	return d
}

// ApplyDelta overlays an incremental snapshot onto the base generation it
// was captured against and returns the materialised full snapshot,
// bit-identical (layout, contents, data lengths, fingerprint) to the full
// CommitUpperHalf that would have been taken at the same instant. Regions
// the delta does not mention are dropped; regions without a matching base
// region are rebuilt from zero-filled content plus carried pages.
func ApplyDelta(base Snapshot, d Delta) Snapshot {
	baseIdx := make(map[uint64]int, len(base.Regions))
	for i := range base.Regions {
		baseIdx[base.Regions[i].Addr] = i
	}
	baseHashes := len(base.RegionHashes) == len(base.Regions)
	out := Snapshot{
		Brk:          d.Brk,
		Regions:      make([]Region, 0, len(d.Regions)),
		RegionHashes: make([]uint64, 0, len(d.Regions)),
	}
	for _, rd := range d.Regions {
		var data []byte
		var hash uint64
		hashKnown := false
		if i, ok := baseIdx[rd.Addr]; ok {
			b := &base.Regions[i]
			if b.Name != rd.Name || b.Size != rd.Size || b.Half != rd.Half || b.Kind != rd.Kind {
				// The address was reused by a structurally different
				// region; the capture marked it all-dirty, so rebuilding
				// from pages alone is lossless.
				data = zeroFilled(rd.DataLen)
			} else if uint64(len(b.Data)) == rd.DataLen && len(rd.Pages) == 0 {
				// Untouched region: alias the base backing slice (both are
				// immutable image payloads) and reuse its digest.
				data = b.Data
				if baseHashes {
					hash, hashKnown = base.RegionHashes[i], true
				}
			} else {
				data = zeroFilled(rd.DataLen)
				copy(data, b.Data)
			}
		} else {
			data = zeroFilled(rd.DataLen)
		}
		for _, p := range rd.Pages {
			start, end := pageExtent(p.Index, rd.DataLen)
			if uint64(len(p.Data)) != end-start {
				panic(fmt.Sprintf("memsim: delta page %d of region %q carries %d bytes, extent is %d",
					p.Index, rd.Name, len(p.Data), end-start))
			}
			copy(data[start:end], p.Data)
		}
		r := Region{Name: rd.Name, Half: rd.Half, Kind: rd.Kind, Addr: rd.Addr, Size: rd.Size, Data: data}
		if !hashKnown {
			hash = contentHash(r.Name, r.Half, r.Kind, r.Addr, r.Size, r.Data)
		}
		out.Regions = append(out.Regions, r)
		out.RegionHashes = append(out.RegionHashes, hash)
	}
	return out
}

// zeroFilled returns a zero slice of length n, preserving nil for n == 0
// so materialised and never-materialised regions stay distinguishable.
func zeroFilled(n uint64) []byte {
	if n == 0 {
		return nil
	}
	return make([]byte, n)
}
