package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestTraceRoundTrip pins the trace format's core property: writing any
// compiled library spec and reading it back reproduces the programs
// exactly, for every op kind the compiler can emit.
func TestTraceRoundTrip(t *testing.T) {
	for _, name := range Names() {
		progs := MustPrograms(name, Params{Ranks: 6, Steps: 12, Seed: 3})
		var buf bytes.Buffer
		if err := WriteTrace(&buf, progs); err != nil {
			t.Fatalf("%s: WriteTrace: %v", name, err)
		}
		got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadTrace: %v", name, err)
		}
		if !reflect.DeepEqual(got, progs) {
			t.Errorf("spec %s: trace round-trip altered the programs", name)
		}
	}
}

// TestTraceWriterDeterministic: same programs, same bytes.
func TestTraceWriterDeterministic(t *testing.T) {
	progs := MustPrograms("overlap", Params{Ranks: 8, Steps: 6, Seed: 5})
	var a, b bytes.Buffer
	if err := WriteTrace(&a, progs); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&b, progs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two writes of the same programs differ")
	}
}

// TestTraceReaderToleratesCommentsAndBlanks: traces are text and may be
// annotated by hand.
func TestTraceReaderTolerates(t *testing.T) {
	src := `manatrace v1 ranks=2

# rank 0 does the work
0 compute dur=1000
0 send peer=1 bytes=64 tag=0
1 recv peer=0 tag=0
`
	progs, err := ReadTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 || len(progs[0]) != 2 || len(progs[1]) != 1 {
		t.Fatalf("parsed shape %d/%d/%d, want 2 ranks with 2 and 1 ops", len(progs), len(progs[0]), len(progs[1]))
	}
	want := Op{Kind: OpSend, Peer: 1, Bytes: 64, Tag: 0}
	if progs[0][1] != want {
		t.Errorf("op = %+v, want %+v", progs[0][1], want)
	}
}

// TestTraceParseErrorsNameLine pins the error contract: malformed traces
// are rejected with the offending line (or field) named.
func TestTraceParseErrorsNameLine(t *testing.T) {
	cases := []struct {
		label string
		src   string
		want  string
	}{
		{"empty", "", "empty input"},
		{"bad header", "tracefile 1\n", "line 1: bad header"},
		{"bad rank count", "manatrace v1 ranks=zero\n", "line 1: bad rank count"},
		{"rank out of range", "manatrace v1 ranks=2\n5 wait\n", "line 2: rank \"5\" out of range"},
		{"unknown op", "manatrace v1 ranks=1\n0 teleport\n", `line 2: unknown op "teleport"`},
		{"missing field", "manatrace v1 ranks=1\n0 send peer=1 tag=0\n", "line 2: op send: missing field bytes"},
		{"unexpected field", "manatrace v1 ranks=1\n0 wait bytes=4\n", "line 2: op wait: unexpected field bytes"},
		{"malformed field", "manatrace v1 ranks=1\n0 compute dur\n", "line 2: malformed field"},
		{"bad value", "manatrace v1 ranks=1\n0 compute dur=soon\n", `line 2: field dur: bad value "soon"`},
		{"duplicate field", "manatrace v1 ranks=1\n0 sbrk bytes=1 bytes=2\n", "line 2: field bytes: duplicated"},
		{"negative dur", "manatrace v1 ranks=1\n0 compute dur=-5\n", "line 2: op compute: negative dur"},
		{"short line", "manatrace v1 ranks=1\n0\n", "line 2"},
	}
	for _, tc := range cases {
		_, err := ReadTrace(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("%s: ReadTrace accepted a malformed trace", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want substring %q", tc.label, err, tc.want)
		}
	}
}

// TestTraceHeaderRankBound pins the allocation guard: a header claiming
// more than MaxRanks ranks is refused by name before ReadTrace sizes its
// per-rank slice, and the bound itself is accepted.
func TestTraceHeaderRankBound(t *testing.T) {
	_, err := ReadTrace(strings.NewReader("manatrace v1 ranks=99999999999"))
	if err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Fatalf("oversized header: err = %v, want an error naming ranks", err)
	}
	progs, err := ReadTrace(strings.NewReader(fmt.Sprintf("manatrace v1 ranks=%d\n", MaxRanks)))
	if err != nil || len(progs) != MaxRanks {
		t.Fatalf("header at MaxRanks: %d programs, err %v", len(progs), err)
	}
}
