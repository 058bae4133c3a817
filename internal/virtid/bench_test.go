package virtid

import "testing"

// benchSink defeats dead-code elimination of the lookup results.
var benchSink uint64

// BenchmarkVirtidLookup measures the hot-path Lookup. The handle
// population mirrors a real rank: a few communicators and datatypes plus
// the in-flight request window of a nonblocking-heavy application
// (hundreds to thousands of live requests is routine for the NERSC
// workloads that exposed this bottleneck), all registered before the
// clock starts. Lookups hit the request namespace, the population that
// actually grows at scale.
func BenchmarkVirtidLookup(b *testing.B) {
	var tab Table
	for i := 0; i < 4; i++ {
		tab.Register(Comm, Real(0x44000000+i))
		tab.Register(Datatype, Real(0x4c000000+i))
	}
	const handles = 2048 // power of two for cheap masking
	vids := make([]VID, handles)
	for i := range vids {
		vids[i] = tab.Register(Request, Real(0x98000000+i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		real, ok := tab.Lookup(Request, vids[i&(handles-1)])
		if !ok {
			b.Fatal("lookup miss on a registered handle")
		}
		sum += uint64(real)
	}
	benchSink = sum
}

// BenchmarkVirtidRequestChurn measures the write path every nonblocking
// operation pays: register a request, resolve it once (the wait),
// deregister it.
func BenchmarkVirtidRequestChurn(b *testing.B) {
	var tab Table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := tab.Register(Request, Real(i))
		if _, ok := tab.Lookup(Request, v); !ok {
			b.Fatal("request did not resolve")
		}
		tab.Deregister(Request, v)
	}
}
