package coordinator

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"

	"mana/internal/rank"
	"mana/internal/virtid"
)

// digest is the FNV-1a hasher behind the checkpoint and final
// fingerprints. Every value goes in as a fixed-width little-endian word
// and every variable-length list or string is prefixed by its length, so
// the encoding is unambiguous without separators.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

// u64 writes each value as one little-endian word.
func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	io.WriteString(d.h, s)
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// Section tags keep torn, full and delta images apart in the digest.
const (
	tagTorn uint64 = iota + 1
	tagFull
	tagDelta
)

// digestImage folds one image into the checkpoint fingerprint. Every
// payload iterated here is sorted by construction (regions by address,
// pages by index, virtid entries by virtual id), so the digest is
// deterministic across runs.
func digestImage(d *digest, img rank.Image) {
	if !img.Complete {
		// A torn image digests its partial size so two runs of the same
		// fault plan fingerprint identically while differing from the
		// clean image. Content hashes below come from the capture-time
		// memos either way.
		d.u64(tagTorn, img.WrittenBytes, img.Bytes())
	}
	d.u64(uint64(img.RankID), uint64(img.PC), uint64(img.Clock))
	if img.Full {
		d.u64(tagFull, img.Mem.Fingerprint())
	} else {
		d.u64(tagDelta, uint64(img.Seq), uint64(img.Base), img.Delta.Brk)
	}
	digestStats(d, img.Stats)
	if !img.Full {
		d.u64(uint64(len(img.Delta.Regions)))
		for _, rd := range img.Delta.Regions {
			d.str(rd.Name)
			d.u64(uint64(rd.Half), uint64(rd.Kind), rd.Addr, rd.Size, rd.DataLen, uint64(len(rd.Pages)))
			for _, p := range rd.Pages {
				d.u64(uint64(p.Index), p.Hash)
			}
		}
	}
	d.u64(uint64(len(img.Inbox)))
	for _, m := range img.Inbox {
		d.u64(uint64(m.Src), uint64(m.Dst), uint64(m.Tag), m.Bytes, uint64(m.Arrive))
	}
	for k := 0; k < virtid.NumKinds; k++ {
		d.u64(img.Virt.Next[k], uint64(len(img.Virt.Entries[k])))
		for _, e := range img.Virt.Entries[k] {
			d.u64(uint64(e.VID), uint64(e.Real))
		}
	}
	d.u64(uint64(len(img.PendingReqs)))
	for _, req := range img.PendingReqs {
		d.u64(uint64(req))
	}
	d.u64(uint64(len(img.Comms)))
	for i := range img.Comms {
		d.u64(uint64(img.Comms[i]), uint64(img.CommIDs[i]))
	}
}

// digestStats folds every rank.Stats field, in declaration order. A
// reflect-based test fails when a new field is not digested here.
func digestStats(d *digest, s rank.Stats) {
	d.u64(s.MPICalls, s.MsgsSent, s.MsgsRecvd, s.BytesSent, s.BytesRecvd,
		s.Collectives, s.CommSplits, uint64(s.ComputeTime), uint64(s.ManaOverhead),
		s.HandleLookups, s.CommLookups, s.DatatypeLookups, s.RequestLookups,
		s.HandleWrites, uint64(s.LookupTime), uint64(s.WriteTime))
}

// FinalFingerprint digests every rank's final clock and upper-half
// memory, so two runs can be compared for bit-identical results. The
// memory digest comes from the live page memos (memsim's copy-free
// AddressSpace.Fingerprint), not from a snapshot.
func (c *Coordinator) FinalFingerprint() uint64 {
	d := newDigest()
	for _, r := range c.ranks {
		d.u64(uint64(r.ID()), uint64(r.Clock().Now()), r.Mem().Fingerprint())
	}
	return d.sum()
}
