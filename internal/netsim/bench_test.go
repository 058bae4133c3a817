package netsim

import (
	"testing"

	"mana/internal/vtime"
)

const benchRanks = 256

// BenchmarkNetsimDrain times one checkpoint drain of a 256-rank network
// whose every pair has sent before, the way coordinator.drain runs it:
// one PeersTo probe and one DrainTo per rank. all-pairs has two
// messages in flight on every pair (131072 drained per op); one-per-dst
// has one in flight per destination (256 drained), the case where a
// drain that walks every pair for every rank pays for history rather
// than for traffic. Refilling the network is outside the timer.
func BenchmarkNetsimDrain(b *testing.B) {
	b.Run("all-pairs", func(b *testing.B) {
		benchDrain(b, func(n *Network) {
			for k := 0; k < 2; k++ {
				for src := 0; src < benchRanks; src++ {
					for dst := 0; dst < benchRanks; dst++ {
						n.Send(src, dst, k, 64, vtime.Stamp{Rank: src})
					}
				}
			}
		})
	})
	b.Run("one-per-dst", func(b *testing.B) {
		benchDrain(b, func(n *Network) {
			for dst := 0; dst < benchRanks; dst++ {
				src := (dst + 1) % benchRanks
				n.Send(src, dst, 0, 64, vtime.Stamp{Rank: src})
			}
		})
	})
}

func benchDrain(b *testing.B, fill func(*Network)) {
	n := New(DefaultParams())
	for src := 0; src < benchRanks; src++ {
		for dst := 0; dst < benchRanks; dst++ {
			n.Send(src, dst, 0, 64, vtime.Stamp{Rank: src})
		}
	}
	for dst := 0; dst < benchRanks; dst++ {
		n.DrainTo(dst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var drained, probes int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill(n)
		b.StartTimer()
		drained, probes = 0, 0
		for dst := 0; dst < benchRanks; dst++ {
			probes += n.PeersTo(dst)
			drained += len(n.DrainTo(dst))
		}
	}
	if n.InFlight() != 0 {
		b.Fatalf("%d messages still in flight after the drain", n.InFlight())
	}
	b.ReportMetric(float64(drained), "msgs")
	b.ReportMetric(float64(probes), "probes")
}

// BenchmarkNetsimSendRecv times one Send plus the Recv that consumes it,
// cycling over every pair of a 256-rank all-to-all network with a short
// standing backlog on each pair: the per-message cost the scheduler pays
// outside checkpoints. The one allocation per op is the Message.
func BenchmarkNetsimSendRecv(b *testing.B) {
	n := New(DefaultParams())
	for k := 0; k < 2; k++ {
		for src := 0; src < benchRanks; src++ {
			for dst := 0; dst < benchRanks; dst++ {
				n.Send(src, dst, 0, 64, vtime.Stamp{Rank: src})
			}
		}
	}
	by := vtime.Time(1 << 62)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := i%benchRanks, (i/benchRanks)%benchRanks
		n.Send(src, dst, 0, 64, vtime.Stamp{Rank: src})
		if n.Recv(dst, src, by) == nil {
			b.Fatal("Recv found no message on a pair with a backlog")
		}
	}
}
