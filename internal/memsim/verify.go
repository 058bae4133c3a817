package memsim

import "fmt"

// Verify recomputes every region's content digest from its bytes — the
// pageHash of every page composed with the layout, ignoring any memo —
// and compares it against the RegionHashes memo captured at commit time,
// returning the number of pages rehashed and an error naming the first
// mismatching region. A snapshot without a hash memo cannot be verified —
// full images always carry one, so a missing memo is itself reported as
// unverifiable.
func (s Snapshot) Verify() (pages int, err error) {
	if len(s.RegionHashes) != len(s.Regions) {
		return 0, fmt.Errorf("memsim: snapshot carries no region hash memo (%d hashes for %d regions)",
			len(s.RegionHashes), len(s.Regions))
	}
	for i, r := range s.Regions {
		pages += pageCount(uint64(len(r.Data)))
		got := contentHash(r.Name, r.Half, r.Kind, r.Addr, r.Size, r.Data)
		if got != s.RegionHashes[i] {
			return pages, fmt.Errorf("memsim: region %q content hash %016x does not match recorded %016x",
				r.Name, got, s.RegionHashes[i])
		}
	}
	return pages, nil
}

// Verify recomputes every carried page's pageHash — the same digest the
// region content hashes are composed from — and compares it against the
// hash recorded at capture time, returning the number of pages rehashed
// and an error naming the first mismatching region and page.
func (d Delta) Verify() (pages int, err error) {
	for _, rd := range d.Regions {
		for _, p := range rd.Pages {
			pages++
			if got := pageHash(p.Data); got != p.Hash {
				return pages, fmt.Errorf("memsim: region %q page %d hash %016x does not match recorded %016x",
					rd.Name, p.Index, got, p.Hash)
			}
		}
	}
	return pages, nil
}

// CorruptSnapshot flips one byte at the start of each of the first n
// materialised pages of the snapshot, walking regions in order, and
// returns how many pages were actually damaged. Touched regions have their
// payload deep-copied first: snapshot payloads alias the live space's
// sealed slices, and corrupting those in place would damage the running
// ranks rather than the on-disk image. The RegionHashes memo is left
// untouched — the stale digests are exactly what Verify later trips over.
func CorruptSnapshot(s *Snapshot, n int) int {
	done := 0
	for i := range s.Regions {
		if done >= n {
			break
		}
		r := &s.Regions[i]
		if len(r.Data) == 0 {
			continue
		}
		data := make([]byte, len(r.Data))
		copy(data, r.Data)
		for off := 0; off < len(data) && done < n; off += PageSize {
			data[off] ^= 0xFF
			done++
		}
		r.Data = data
	}
	return done
}

// CorruptDelta flips one byte at the start of each of the first n carried
// pages of the delta, walking regions and pages in order, and returns how
// many pages were actually damaged. Page payloads are private copies made
// at capture time, so they can be damaged in place; the recorded page
// hashes are left stale for Verify to detect.
func CorruptDelta(d *Delta, n int) int {
	done := 0
	for ri := range d.Regions {
		rd := &d.Regions[ri]
		for pi := range rd.Pages {
			if done >= n {
				return done
			}
			p := &rd.Pages[pi]
			if len(p.Data) == 0 {
				continue
			}
			p.Data[0] ^= 0xFF
			done++
		}
	}
	return done
}
