// Package virtid implements MANA's handle-virtualisation table: the
// virtual-to-real translation layer that sits on every MPI call's hot
// path (paper §3.3).
//
// MANA cannot hand the application real MPI handles, because the lower
// half — the MPI library that owns them — is discarded at checkpoint and
// rebuilt from scratch at restart, at which point every real handle value
// changes. The upper half therefore only ever sees *virtual* handles, and
// each call that passes a communicator, datatype or request translates it
// through this table on the way down. That translation is per-call work:
// the NERSC production study of MANA (arXiv:2103.08546) identified
// exactly this bookkeeping, a hash-table lookup behind a lock, as the
// dominant steady-state overhead at scale.
//
// Table is the translation table one simulated rank owns. Only the
// goroutine running that rank ever touches it, so it takes no lock. What
// a production table's design costs is modelled, not executed: Impl
// names the design a job selects (MANA's original mutex-guarded table or
// a lock-free sharded one), and its LookupCost and WriteCost are the
// virtual-time prices kernelsim charges per translated handle and per
// handle birth or retirement.
//
// Determinism rule: virtual ids are allocated from per-kind counters in
// registration order, and Snapshot returns entries sorted by virtual id,
// so a checkpoint image, a fingerprint or a report depends only on the
// sequence of registrations.
package virtid

import (
	"cmp"
	"fmt"
	"slices"

	"mana/internal/vtime"
)

// Kind identifies which handle namespace a virtual id lives in. MPI
// handle spaces are disjoint (a communicator and a datatype may share a
// numeric value), so the table keeps one namespace per kind.
type Kind int

const (
	// Comm is the communicator namespace (MPI_Comm).
	Comm Kind = iota
	// Datatype is the datatype namespace (MPI_Datatype).
	Datatype
	// Request is the request namespace (MPI_Request) — the churn-heavy
	// kind: nonblocking operations register a request at post time and
	// deregister it when the matching wait completes.
	Request
	// NumKinds is the number of handle namespaces.
	NumKinds = iota
)

// String returns the MPI-style name of the handle kind.
func (k Kind) String() string {
	switch k {
	case Comm:
		return "comm"
	case Datatype:
		return "datatype"
	case Request:
		return "request"
	default:
		return "unknown"
	}
}

// VID is a virtual handle id — the only handle form the upper half ever
// sees. The zero VID is never allocated and never resolves, so it can
// serve as a null handle.
type VID uint64

// Real is a real handle value as the live lower half knows it. Real
// values are opaque to the upper half and die with the lower half at
// checkpoint.
type Real uint64

// LookupCounts records how many translations of each kind one MPI call
// performs; kernelsim charges the per-call virtualisation cost from it.
type LookupCounts struct {
	Comm     uint64
	Datatype uint64
	Request  uint64
}

// Total returns the total number of lookups the counts describe.
func (c LookupCounts) Total() uint64 { return c.Comm + c.Datatype + c.Request }

// Calibrated per-operation virtual-time costs of the two table designs.
// The lookup figures keep the ~7x gap measured between a mutex-guarded
// Go table and a lock-free sharded one under contention; the write
// figures price the baseline's append under its lock against the
// sharded design's copy-on-write rebuild. The design bet, as in MANA
// itself, is that lookups outnumber handle births by orders of
// magnitude, so the read saving dominates.
const (
	// MutexLookupCost is one translation through MANA's original table:
	// an ordered probe under one global lock.
	MutexLookupCost = 35 * vtime.Nanosecond
	// ShardedLookupCost is one translation through a lock-free sharded
	// table: a hash, an atomic load and an open-addressed probe.
	ShardedLookupCost = 8 * vtime.Nanosecond
	// MutexWriteCost is one Register or Deregister in the baseline: an
	// append or shift under the same global lock.
	MutexWriteCost = 20 * vtime.Nanosecond
	// ShardedWriteCost is one Register or Deregister in the sharded
	// design: a shard-local copy-on-write rebuild plus its publication.
	ShardedWriteCost = 110 * vtime.Nanosecond
)

// Impl selects the table design whose costs a job is charged.
type Impl int

const (
	// ImplMutex is the single-global-mutex baseline, matching MANA's
	// original design.
	ImplMutex Impl = iota
	// ImplSharded is the optimised design: sharded, lock-free reads.
	ImplSharded
)

// String returns the implementation's CLI name.
func (i Impl) String() string {
	switch i {
	case ImplMutex:
		return "mutex"
	case ImplSharded:
		return "sharded"
	default:
		return "unknown"
	}
}

// ParseImpl converts a CLI name into an Impl.
func ParseImpl(s string) (Impl, error) {
	switch s {
	case "mutex":
		return ImplMutex, nil
	case "sharded":
		return ImplSharded, nil
	default:
		return 0, fmt.Errorf("unknown virtid implementation %q (want mutex or sharded)", s)
	}
}

// LookupCost returns the design's calibrated per-lookup cost.
func (i Impl) LookupCost() vtime.Duration {
	if i == ImplSharded {
		return ShardedLookupCost
	}
	return MutexLookupCost
}

// WriteCost returns the design's calibrated cost of one Register or
// Deregister.
func (i Impl) WriteCost() vtime.Duration {
	if i == ImplSharded {
		return ShardedWriteCost
	}
	return MutexWriteCost
}

// Table is one rank's virtual-to-real translation table. Per kind, the
// live mappings are kept sorted by virtual id: ids are allocated in
// increasing order, so Register is an append, Lookup a binary search and
// Deregister an in-place delete. The zero Table is empty and ready to
// use. A Table is not safe for concurrent use; its rank's goroutine is
// its only user.
type Table struct {
	next    [NumKinds]uint64
	entries [NumKinds][]Entry
}

// find returns the index of v in the kind's entries, or (i, false) with
// i the insertion point.
func (t *Table) find(k Kind, v VID) (int, bool) {
	return slices.BinarySearchFunc(t.entries[k], v, func(e Entry, v VID) int { return cmp.Compare(e.VID, v) })
}

// Register allocates the next virtual id in the kind's namespace and
// maps it to the given real handle.
func (t *Table) Register(k Kind, real Real) VID {
	t.next[k]++
	v := VID(t.next[k])
	t.entries[k] = append(t.entries[k], Entry{VID: v, Real: real})
	return v
}

// NextVID returns the virtual id the kind's next Register will allocate.
func (t *Table) NextVID(k Kind) VID { return VID(t.next[k] + 1) }

// Lookup translates a virtual id; ok is false for ids that were never
// registered or have been deregistered (a miss is a virtualisation bug in
// the caller, or a stale handle from a dead timeline). The null VID never
// resolves.
func (t *Table) Lookup(k Kind, v VID) (Real, bool) {
	if i, ok := t.find(k, v); ok {
		return t.entries[k][i].Real, true
	}
	return 0, false
}

// Deregister removes a mapping, reporting whether it existed. Virtual ids
// are never reused: the allocation counter only moves forward.
func (t *Table) Deregister(k Kind, v VID) bool {
	i, ok := t.find(k, v)
	if ok {
		t.entries[k] = slices.Delete(t.entries[k], i, i+1)
	}
	return ok
}

// Len reports the number of live mappings of one kind.
func (t *Table) Len(k Kind) int { return len(t.entries[k]) }

// Snapshot captures the table state for a checkpoint image. The entries
// are copies, already sorted by virtual id.
func (t *Table) Snapshot() Snapshot {
	s := Snapshot{Next: t.next}
	for k := range t.entries {
		s.Entries[k] = append([]Entry(nil), t.entries[k]...)
	}
	return s
}

// Restore replaces the table's contents with a copy of the snapshot's.
// Mappings registered after the snapshot was taken — handles of the dead
// timeline — no longer resolve afterwards.
func (t *Table) Restore(s Snapshot) {
	t.next = s.Next
	for k := range t.entries {
		t.entries[k] = append(t.entries[k][:0], s.Entries[k]...)
	}
}

// Entry is one virtual-to-real mapping in a snapshot.
type Entry struct {
	VID  VID
	Real Real
}

// Snapshot is a deterministic capture of a table: per-kind entries sorted
// by virtual id, plus the per-kind allocation counters so that replayed
// registrations after restart reproduce the same virtual ids.
type Snapshot struct {
	Next    [NumKinds]uint64
	Entries [NumKinds][]Entry
}

// Live returns the total number of mappings in the snapshot.
func (s Snapshot) Live() int {
	n := 0
	for k := 0; k < NumKinds; k++ {
		n += len(s.Entries[k])
	}
	return n
}
