package netsim

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mana/internal/vtime"
)

// refNet is the reference model the per-destination Network is checked
// against: one global map of per-pair FIFO queues and one of counters,
// every query a scan. It is slow and obviously right.
type refNet struct {
	params   Params
	nextSeq  uint64
	queues   map[Pair][]*Message
	counters Counters
}

func newRefNet(p Params) *refNet {
	return &refNet{params: p, queues: make(map[Pair][]*Message), counters: make(Counters)}
}

func (r *refNet) send(src, dst, tag int, bytes uint64, sent vtime.Stamp) *Message {
	busy := r.params.SerializeCost(bytes)
	r.nextSeq++
	m := &Message{Seq: r.nextSeq, Src: src, Dst: dst, Tag: tag, Bytes: bytes, Sent: sent,
		Arrive: sent.When.Add(busy + r.params.WireLatency(src, dst))}
	p := Pair{Src: src, Dst: dst}
	r.queues[p] = append(r.queues[p], m)
	pc := r.counters[p]
	pc.Sent++
	r.counters[p] = pc
	return m
}

func (r *refNet) recv(dst, src int, by vtime.Time) *Message {
	p := Pair{Src: src, Dst: dst}
	q := r.queues[p]
	if len(q) == 0 || q[0].Arrive > by {
		return nil
	}
	r.queues[p] = q[1:]
	pc := r.counters[p]
	pc.Received++
	r.counters[p] = pc
	return q[0]
}

func (r *refNet) drainTo(dst int) []*Message {
	var srcs []int
	for p, q := range r.queues {
		if p.Dst == dst && len(q) > 0 {
			srcs = append(srcs, p.Src)
		}
	}
	slices.Sort(srcs)
	var out []*Message
	for _, src := range srcs {
		p := Pair{Src: src, Dst: dst}
		out = append(out, r.queues[p]...)
		pc := r.counters[p]
		pc.Received += uint64(len(r.queues[p]))
		r.counters[p] = pc
		delete(r.queues, p)
	}
	return out
}

func (r *refNet) inFlightTo(dst int) uint64 {
	var n uint64
	for p, q := range r.queues {
		if p.Dst == dst {
			n += uint64(len(q))
		}
	}
	return n
}

func (r *refNet) inFlight() uint64 {
	var n uint64
	for _, q := range r.queues {
		n += uint64(len(q))
	}
	return n
}

func (r *refNet) peersTo(dst int) int {
	peers := 0
	for p := range r.counters {
		if p.Dst == dst {
			peers++
		}
	}
	return peers
}

func (r *refNet) totalSent() uint64 {
	var n uint64
	for _, pc := range r.counters {
		n += pc.Sent
	}
	return n
}

func (r *refNet) restore(c Counters) {
	r.queues = make(map[Pair][]*Message)
	r.counters = c.Clone()
}

func seqs(ms []*Message) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.Seq
	}
	return out
}

// TestNetworkMatchesReferenceModel drives the Network and the reference
// model through the same seeded random mix of sends, arrival-gated
// receives, drains, counter snapshots and restores, and compares every
// answer and every observable total after each step.
func TestNetworkMatchesReferenceModel(t *testing.T) {
	const ranks = 16
	params := Params{Latency: 1000 * vtime.Nanosecond, BandwidthBytesPerSec: 1e9,
		GroupSize: 4, CrossGroupLatency: 500 * vtime.Nanosecond}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, ref := New(params), newRefNet(params)
		var saved []Counters
		now := vtime.Time(0)
		for step := 0; step < 3000; step++ {
			now += vtime.Time(rng.Intn(400))
			// Sources and destinations are skewed so some pairs build
			// long queues while others see a single message.
			src, dst := rng.Intn(ranks), rng.Intn(ranks)
			if rng.Intn(2) == 0 {
				src, dst = rng.Intn(3), rng.Intn(4)
			}
			switch op := rng.Intn(100); {
			case op < 45:
				when := now - vtime.Time(rng.Intn(2000))
				stamp := vtime.Stamp{Rank: src, When: max(when, 0)}
				bytes := uint64(rng.Intn(4096))
				got, _ := net.Send(src, dst, step, bytes, stamp)
				want := ref.send(src, dst, step, bytes, stamp)
				if *got != *want {
					t.Fatalf("seed %d step %d: Send = %+v, want %+v", seed, step, *got, *want)
				}
			case op < 80:
				by := now + vtime.Time(rng.Intn(3000))
				got, want := net.Recv(dst, src, by), ref.recv(dst, src, by)
				if (got == nil) != (want == nil) || (got != nil && got.Seq != want.Seq) {
					t.Fatalf("seed %d step %d: Recv(%d, %d) = %v, want %v", seed, step, dst, src, got, want)
				}
			case op < 90:
				if got, want := seqs(net.DrainTo(dst)), seqs(ref.drainTo(dst)); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: DrainTo(%d) = %v, want %v", seed, step, dst, got, want)
				}
			case op < 96:
				saved = append(saved, net.CountersSnapshot())
			default:
				if len(saved) == 0 {
					continue
				}
				c := saved[rng.Intn(len(saved))]
				if rng.Intn(2) == 0 {
					// A counter entry with no traffic still counts as a
					// peer, as it always has.
					c = c.Clone()
					c[Pair{Src: src, Dst: dst}] = c[Pair{Src: src, Dst: dst}]
				}
				net.Restore(c)
				ref.restore(c)
			}
			if !maps.Equal(net.CountersSnapshot(), ref.counters) {
				t.Fatalf("seed %d step %d: counters diverge\n got %v\nwant %v", seed, step, net.CountersSnapshot(), ref.counters)
			}
			if got, want := net.InFlight(), ref.inFlight(); got != want {
				t.Fatalf("seed %d step %d: InFlight = %d, want %d", seed, step, got, want)
			}
			if got, want := net.TotalSent(), ref.totalSent(); got != want {
				t.Fatalf("seed %d step %d: TotalSent = %d, want %d", seed, step, got, want)
			}
			// One rank past the job too: a destination never sent to.
			for d := 0; d <= ranks; d++ {
				if got, want := net.InFlightTo(d), ref.inFlightTo(d); got != want {
					t.Fatalf("seed %d step %d: InFlightTo(%d) = %d, want %d", seed, step, d, got, want)
				}
				if got, want := net.PeersTo(d), ref.peersTo(d); got != want {
					t.Fatalf("seed %d step %d: PeersTo(%d) = %d, want %d", seed, step, d, got, want)
				}
			}
		}
	}
}

// TestConcurrentSendRecvDisjointDestinations runs the island window's
// access pattern: several workers at once, each receiving only for its
// own destinations while sending to every destination. Under -race it
// checks the network's locking; in any mode it checks that no message
// is lost, duplicated or reordered within its pair.
func TestConcurrentSendRecvDisjointDestinations(t *testing.T) {
	const (
		workers = 4
		ranks   = 16
		sends   = 2000
	)
	net := New(testParams())
	var wg sync.WaitGroup
	recvd := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Worker w sends only from its own ranks, so each pair has
			// one sender, which numbers the pair's messages in tag; next
			// is the tag the next message received on a pair must carry.
			var next, tag [ranks][ranks]int
			for i := 0; i < sends; i++ {
				src := w + workers*rng.Intn(ranks/workers)
				dst := rng.Intn(ranks)
				net.Send(src, dst, tag[src][dst], 8, vtime.Stamp{Rank: src})
				tag[src][dst]++
				for dst := w; dst < ranks; dst += workers {
					for src := 0; src < ranks; src++ {
						for m := net.Recv(dst, src, vtime.Time(1<<62)); m != nil; m = net.Recv(dst, src, vtime.Time(1<<62)) {
							if m.Tag != next[src][dst] {
								t.Errorf("pair %d->%d: got tag %d, want %d", src, dst, m.Tag, next[src][dst])
							}
							next[src][dst]++
							recvd[w]++
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := net.InFlight()
	for _, n := range recvd {
		total += uint64(n)
	}
	if got := net.TotalSent(); got != workers*sends || total != got {
		t.Errorf("sent %d, received+in flight %d, want both %d", got, total, workers*sends)
	}
}
