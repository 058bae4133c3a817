// Package netsim models the point-to-point interconnect of the simulated
// MPI job in virtual time.
//
// The model is deliberately simple — a latency plus bandwidth-serialisation
// cost per message — because MANA is network-agnostic: the checkpointing
// algorithm only needs to know *when* a message becomes visible to its
// receiver and *how many* messages are in flight between each pair of
// ranks. Every message piggybacks the sender's virtual timestamp
// (vtime.Stamp) so the receiver can advance causally, and the network keeps
// the per-pair send/receive counters that the coordinator's draining
// algorithm (paper §3.1) compares to decide when the network is quiescent.
//
// Delivery is event-driven: each Send computes the message's arrival time
// and hands it to the registered DeliveryScheduler, which turns it into a
// virtual-time event on the coordinator's queue. Receivers are therefore
// woken exactly when a matching message becomes visible instead of being
// polled every scheduler iteration.
package netsim

import (
	"fmt"
	"slices"
	"sync"

	"mana/internal/vtime"
)

// Params configures the interconnect cost model.
type Params struct {
	// Latency is the one-way wire latency of a message of any size.
	Latency vtime.Duration
	// BandwidthBytesPerSec is the serialisation bandwidth; a message of
	// size s occupies the sender for s/Bandwidth seconds before the wire
	// latency applies.
	BandwidthBytesPerSec float64
	// GroupSize partitions ranks into contiguous topology groups of this
	// many ranks each (rank r belongs to group r/GroupSize): the fabric
	// analogue of an electrical group / leaf switch. Zero means a flat
	// fabric with no groups. Groups are also the island scheduler's
	// partition: ranks in the same group share an event-queue lane.
	GroupSize int
	// CrossGroupLatency is the EXTRA one-way latency a message pays when
	// src and dst are in different groups (spine hop). It is the island
	// scheduler's conservative lookahead: no cross-group message can
	// arrive sooner than Latency+CrossGroupLatency after it is sent, so
	// islands may run that far ahead without coordination.
	CrossGroupLatency vtime.Duration
}

// DefaultParams resembles a commodity HPC fabric: ~1.5 us latency,
// ~10 GB/s per-link bandwidth.
func DefaultParams() Params {
	return Params{
		Latency:              1500 * vtime.Nanosecond,
		BandwidthBytesPerSec: 10e9,
	}
}

// SerializeCost returns the time a message of the given size occupies the
// sender's link.
func (p Params) SerializeCost(bytes uint64) vtime.Duration {
	if p.BandwidthBytesPerSec <= 0 {
		return 0
	}
	return vtime.DurationOf(float64(bytes) / p.BandwidthBytesPerSec)
}

// GroupOf returns the topology group of a rank, or 0 on a flat fabric.
func (p Params) GroupOf(rank int) int {
	if p.GroupSize <= 0 {
		return 0
	}
	return rank / p.GroupSize
}

// WireLatency returns the one-way latency between two ranks: the base
// Latency, plus CrossGroupLatency when they sit in different groups.
func (p Params) WireLatency(src, dst int) vtime.Duration {
	l := p.Latency
	if p.GroupSize > 0 && p.GroupOf(src) != p.GroupOf(dst) {
		l += p.CrossGroupLatency
	}
	return l
}

// CrossLookahead returns the minimum one-way latency of any message that
// crosses a group boundary — the island scheduler's conservative
// lookahead window. An event executed at time t can only influence
// another island at t+CrossLookahead or later, so islands may run
// [t, t+CrossLookahead) concurrently. On a flat fabric every rank pair
// is potentially one hop apart, so the lookahead is the base Latency.
func (p Params) CrossLookahead() vtime.Duration {
	if p.GroupSize > 0 {
		return p.Latency + p.CrossGroupLatency
	}
	return p.Latency
}

// CollectiveKind identifies a modelled collective operation.
type CollectiveKind int

const (
	Barrier CollectiveKind = iota
	Allreduce
	// CommSplit is MPI_Comm_split: collective over the parent
	// communicator, exchanging each participant's colour so every member
	// learns its sub-communicator's composition.
	CommSplit
)

// String returns the MPI-style name of the collective.
func (k CollectiveKind) String() string {
	switch k {
	case Barrier:
		return "barrier"
	case Allreduce:
		return "allreduce"
	case CommSplit:
		return "comm-split"
	default:
		return "unknown"
	}
}

// commSplitColorBytes is the per-rank payload a comm-split exchanges: the
// (colour, key) pair every participant contributes to the allgather that
// establishes sub-communicator membership.
const commSplitColorBytes = 16

// CollectiveCost returns the modelled completion cost of a collective over
// nRanks ranks carrying bytes of payload per rank, measured from the
// moment the last participant arrives. All collectives use a
// logarithmic-depth tree; allreduce additionally pays reduce+broadcast
// serialisation, and comm-split the (small) colour allgather.
func (p Params) CollectiveCost(kind CollectiveKind, nRanks int, bytes uint64) vtime.Duration {
	depth := log2ceil(nRanks)
	cost := vtime.Duration(depth) * p.Latency
	switch kind {
	case Allreduce:
		cost += 2 * vtime.Duration(depth) * p.SerializeCost(bytes)
	case CommSplit:
		cost += vtime.Duration(depth) * p.SerializeCost(commSplitColorBytes*uint64(nRanks))
	}
	return cost
}

func log2ceil(n int) int {
	d := 0
	for v := 1; v < n; v <<= 1 {
		d++
	}
	return d
}

// Message is one in-flight point-to-point message.
type Message struct {
	// Seq is a globally unique, monotonically increasing send sequence
	// number; it makes drain ordering deterministic.
	Seq uint64
	// Src and Dst are rank IDs.
	Src, Dst int
	// Tag is the application-level message tag (carried for reporting).
	Tag int
	// Bytes is the payload size.
	Bytes uint64
	// Sent is the sender's piggybacked virtual timestamp at injection.
	Sent vtime.Stamp
	// Arrive is the virtual time at which the message is visible to the
	// receiver: send time + serialisation + latency.
	Arrive vtime.Time

	// next links the message to the one sent after it on the same pair
	// while both are queued; a message leaves the network with next nil.
	next *Message
}

// Pair identifies a directed rank pair.
type Pair struct {
	Src, Dst int
}

// PairCount holds the send/receive counters for one directed pair. The
// draining algorithm is exactly "wait until Sent == Received for every
// pair" (§3.1).
type PairCount struct {
	Sent     uint64
	Received uint64
}

// Counters is a snapshot of all per-pair counters, keyed by pair. It is
// part of the checkpoint image so that restart resumes with consistent
// bookkeeping.
type Counters map[Pair]PairCount

// Clone returns a deep copy of the counters.
func (c Counters) Clone() Counters {
	out := make(Counters, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// InFlight returns the total number of sent-but-not-received messages the
// counters describe.
func (c Counters) InFlight() uint64 {
	var n uint64
	for _, v := range c {
		n += v.Sent - v.Received
	}
	return n
}

// DeliveryScheduler is notified of every injected message so its arrival
// can be scheduled as a virtual-time event. The event-driven coordinator
// registers itself here: instead of polling the network for receivable
// messages, it is handed each message's arrival time at send time and
// pushes a delivery event onto its queue.
type DeliveryScheduler interface {
	// ScheduleDelivery is called once per Send, after the message's
	// arrival time has been computed and the network lock has been
	// released, so implementations are free to inspect the Network.
	ScheduleDelivery(m *Message)
}

// Network is the simulated interconnect: one inbox per destination rank,
// holding that destination's per-source FIFO queues and the send/receive
// counters the drain protocol uses. It is safe for concurrent use: the
// deterministic scheduler drives it from one goroutine, the island
// scheduler's window workers from several.
type Network struct {
	params Params

	mu      sync.Mutex
	nextSeq uint64
	// inboxes is indexed by destination rank and grows on the first send
	// to a destination, so New allocates no per-rank state.
	inboxes []inbox
	// inflight and sent count sent-but-not-received and ever-sent
	// messages, maintained incrementally so InFlight (consulted after
	// every scheduler event) and TotalSent are O(1).
	inflight uint64
	sent     uint64

	scheduler DeliveryScheduler
}

// inbox is everything the network holds for one destination: one slot
// per source that has ever sent to it, sorted by source so a drain walks
// them in the deterministic order without sorting.
type inbox struct {
	slots []slot
	// queued is the number of messages in flight to this destination,
	// so DrainTo and InFlightTo return at once when it is zero.
	queued uint64
}

// slot is one directed pair's state: its FIFO queue, linked through the
// messages themselves so queueing allocates nothing, and its counters.
type slot struct {
	src        int
	head, tail *Message
	count      PairCount
}

// New returns an empty network with the given parameters.
func New(params Params) *Network {
	return &Network{params: params}
}

// Params returns the cost-model parameters.
func (n *Network) Params() Params { return n.params }

// SetDeliveryScheduler registers the sink that receives one
// ScheduleDelivery callback per injected message. Passing nil disables
// scheduling (the polling-style tests drive Recv directly).
func (n *Network) SetDeliveryScheduler(s DeliveryScheduler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.scheduler = s
}

// inbox returns dst's inbox, or nil when dst lies beyond every
// destination sent to so far. The caller holds n.mu.
func (n *Network) inbox(dst int) *inbox {
	if dst < 0 || dst >= len(n.inboxes) {
		return nil
	}
	return &n.inboxes[dst]
}

// slotFor returns dst's inbox and the slot of pair src→dst, creating
// both, the slot in source order, on the pair's first use. The caller
// holds n.mu.
func (n *Network) slotFor(src, dst int) (*inbox, *slot) {
	if dst >= len(n.inboxes) {
		n.inboxes = append(n.inboxes, make([]inbox, dst+1-len(n.inboxes))...)
	}
	b := &n.inboxes[dst]
	i, ok := b.search(src)
	if !ok {
		b.slots = slices.Insert(b.slots, i, slot{src: src})
	}
	return b, &b.slots[i]
}

// search returns the index of src's slot, or where it would be inserted.
// It runs on every Send and Recv; written out, it is ~1.5x faster per
// message than slices.BinarySearchFunc, which copies each probed slot
// into its comparison function.
func (b *inbox) search(src int) (int, bool) {
	lo, hi := 0, len(b.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.slots[mid].src < src {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(b.slots) && b.slots[lo].src == src
}

// push appends m to the pair's queue.
func (s *slot) push(m *Message) {
	if s.tail == nil {
		s.head = m
	} else {
		s.tail.next = m
	}
	s.tail = m
}

// pop unlinks and returns the pair's oldest queued message.
func (s *slot) pop() *Message {
	m := s.head
	s.head, m.next = m.next, nil
	if s.head == nil {
		s.tail = nil
	}
	return m
}

// Send injects a message and returns it together with the duration the
// sender's link is busy (charged to the sender's clock by the rank
// runtime). The arrival time is computed from the piggybacked stamp.
func (n *Network) Send(src, dst, tag int, bytes uint64, sent vtime.Stamp) (*Message, vtime.Duration) {
	n.mu.Lock()
	busy := n.params.SerializeCost(bytes)
	n.nextSeq++
	m := &Message{
		Seq:    n.nextSeq,
		Src:    src,
		Dst:    dst,
		Tag:    tag,
		Bytes:  bytes,
		Sent:   sent,
		Arrive: sent.When.Add(busy + n.params.WireLatency(src, dst)),
	}
	b, s := n.slotFor(src, dst)
	s.push(m)
	s.count.Sent++
	b.queued++
	n.inflight++
	n.sent++
	scheduler := n.scheduler
	n.mu.Unlock()
	// The delivery event is scheduled outside the lock: the scheduler
	// callback pushes onto the coordinator's event queue and must be free
	// to inspect the network.
	if scheduler != nil {
		scheduler.ScheduleDelivery(m)
	}
	return m, busy
}

// Recv pops the oldest in-flight message from src to dst that has
// arrived by the given virtual time, preserving MPI's per-pair
// non-overtaking order. It returns nil if no message from src has both
// been sent and arrived — a message becomes visible to its receiver at
// m.Arrive, never earlier. That arrival gate is what makes the island
// scheduler's lookahead sound: a send can only influence another island
// once its wire latency has elapsed, so islands may run a full
// CrossLookahead apart without observing each other's in-progress work.
// (Per-pair arrival order equals send order: every message on a pair
// traverses the same wire, so the FIFO head is always the earliest
// arrival.)
func (n *Network) Recv(dst, src int, by vtime.Time) *Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	b := n.inbox(dst)
	if b == nil || b.queued == 0 {
		return nil
	}
	i, ok := b.search(src)
	if !ok {
		return nil
	}
	s := &b.slots[i]
	if s.head == nil || s.head.Arrive > by {
		return nil
	}
	m := s.pop()
	s.count.Received++
	b.queued--
	n.inflight--
	return m
}

// DrainTo pops every in-flight message destined for dst, in deterministic
// order (by source rank, then send sequence), marking each as received.
// The coordinator calls this during the drain phase so the messages can be
// buffered into the receiving rank's checkpoint image. Its cost is the
// destination's peer count plus the messages drained, and nothing at all
// when no message is in flight to dst.
func (n *Network) DrainTo(dst int) []*Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	b := n.inbox(dst)
	if b == nil || b.queued == 0 {
		return nil
	}
	out := make([]*Message, 0, b.queued)
	for i := range b.slots {
		s := &b.slots[i]
		for s.head != nil {
			out = append(out, s.pop())
			s.count.Received++
		}
	}
	n.inflight -= b.queued
	b.queued = 0
	return out
}

// InFlight returns the total number of sent-but-not-received messages.
// It is O(1): the count is maintained incrementally so the scheduler can
// consult it after every event.
func (n *Network) InFlight() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inflight
}

// InFlightTo returns the number of in-flight messages destined for dst.
func (n *Network) InFlightTo(dst int) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b := n.inbox(dst); b != nil {
		return b.queued
	}
	return 0
}

// PeersTo returns the number of source ranks that have ever sent to dst.
// The drain phase charges dst one counter-comparison probe per such peer
// (§3.1 compares send/receive counters pairwise).
func (n *Network) PeersTo(dst int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b := n.inbox(dst); b != nil {
		return len(b.slots)
	}
	return 0
}

// CountersSnapshot returns a deep copy of the per-pair counters.
func (n *Network) CountersSnapshot() Counters {
	n.mu.Lock()
	defer n.mu.Unlock()
	pairs := 0
	for i := range n.inboxes {
		pairs += len(n.inboxes[i].slots)
	}
	c := make(Counters, pairs)
	for dst := range n.inboxes {
		b := &n.inboxes[dst]
		for _, s := range b.slots {
			c[Pair{Src: s.src, Dst: dst}] = s.count
		}
	}
	return c
}

// Restore resets the network to a checkpointed state: all queues are
// discarded (a correct checkpoint drains them to zero first) and the
// counters are replaced by the snapshot.
func (n *Network) Restore(c Counters) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inboxes, n.inflight, n.sent = nil, 0, 0
	for p, pc := range c {
		_, s := n.slotFor(p.Src, p.Dst)
		s.count = pc
		n.sent += pc.Sent
	}
}

// TotalSent returns the total number of messages ever sent.
func (n *Network) TotalSent() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent
}

// String summarises the network state for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("netsim.Network{inflight=%d, sent=%d}", n.InFlight(), n.TotalSent())
}
