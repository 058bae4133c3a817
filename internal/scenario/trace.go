package scenario

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mana/internal/vtime"
)

// The trace format is a line-oriented text encoding of per-rank op
// streams, designed so a recorded run can be replayed exactly — and
// inspected or edited with ordinary text tools:
//
//	manatrace v1 ranks=4
//	0 compute dur=253417
//	0 isend peer=1 bytes=65536 tag=3
//	0 recv peer=3 tag=3
//	0 wait
//	0 allreduce comm=1 bytes=8192
//	0 barrier comm=2
//	0 sbrk bytes=262144
//	0 split comm=0 color=1
//
// Each line is `<rank> <op> [key=value...]`; dur is virtual nanoseconds.
// Ops appear in per-rank program order (the writer emits ranks in order,
// but the reader only requires per-rank ordering).

const traceHeaderPrefix = "manatrace v1 ranks="

// WriteTrace encodes the programs in trace format.
func WriteTrace(w io.Writer, progs []Program) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s%d\n", traceHeaderPrefix, len(progs))
	for id, prog := range progs {
		for _, op := range prog {
			switch op.Kind {
			case OpCompute:
				fmt.Fprintf(bw, "%d compute dur=%d\n", id, int64(op.Dur))
			case OpSend:
				fmt.Fprintf(bw, "%d send peer=%d bytes=%d tag=%d\n", id, op.Peer, op.Bytes, op.Tag)
			case OpRecv:
				fmt.Fprintf(bw, "%d recv peer=%d tag=%d\n", id, op.Peer, op.Tag)
			case OpIsend:
				fmt.Fprintf(bw, "%d isend peer=%d bytes=%d tag=%d\n", id, op.Peer, op.Bytes, op.Tag)
			case OpWait:
				fmt.Fprintf(bw, "%d wait\n", id)
			case OpBarrier:
				fmt.Fprintf(bw, "%d barrier comm=%d\n", id, op.Comm)
			case OpAllreduce:
				fmt.Fprintf(bw, "%d allreduce comm=%d bytes=%d\n", id, op.Comm, op.Bytes)
			case OpSbrk:
				fmt.Fprintf(bw, "%d sbrk bytes=%d\n", id, op.Bytes)
			case OpCommSplit:
				fmt.Fprintf(bw, "%d split comm=%d color=%d\n", id, op.Comm, op.Color)
			default:
				return fmt.Errorf("scenario: trace: rank %d has unknown op kind %d", id, op.Kind)
			}
		}
	}
	return bw.Flush()
}

// ReadTrace decodes a trace, returning one Program per rank. Errors name
// the offending line.
func ReadTrace(r io.Reader) ([]Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("scenario: trace: %w", err)
		}
		return nil, fmt.Errorf("scenario: trace: empty input (want %q header)", traceHeaderPrefix+"N")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, traceHeaderPrefix) {
		return nil, fmt.Errorf("scenario: trace line 1: bad header %q (want %q)", header, traceHeaderPrefix+"N")
	}
	ranks, err := strconv.Atoi(strings.TrimPrefix(header, traceHeaderPrefix))
	if err != nil || ranks < 1 || ranks > MaxRanks {
		return nil, fmt.Errorf("scenario: trace line 1: bad rank count in header %q (ranks must be in [1, %d])", header, MaxRanks)
	}
	progs := make([]Program, ranks)
	for lineNo := 2; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("scenario: trace line %d: want `<rank> <op> [key=value...]`, got %q", lineNo, line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil || id < 0 || id >= ranks {
			return nil, fmt.Errorf("scenario: trace line %d: rank %q out of range [0, %d)", lineNo, fields[0], ranks)
		}
		op, err := parseTraceOp(fields[1], fields[2:])
		if err != nil {
			return nil, fmt.Errorf("scenario: trace line %d: %w", lineNo, err)
		}
		progs[id] = append(progs[id], op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: trace: %w", err)
	}
	return progs, nil
}

// parseTraceOp decodes one trace line's op and key=value fields.
func parseTraceOp(kind string, kvs []string) (Op, error) {
	var op Op
	vals := make(map[string]int64, len(kvs))
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return op, fmt.Errorf("malformed field %q (want key=value)", kv)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return op, fmt.Errorf("field %s: bad value %q", k, v)
		}
		if _, dup := vals[k]; dup {
			return op, fmt.Errorf("field %s: duplicated", k)
		}
		vals[k] = n
	}
	need := func(keys ...string) error {
		for _, k := range keys {
			if _, ok := vals[k]; !ok {
				return fmt.Errorf("op %s: missing field %s", kind, k)
			}
		}
		if len(vals) != len(keys) {
			for k := range vals {
				want := false
				for _, w := range keys {
					want = want || k == w
				}
				if !want {
					return fmt.Errorf("op %s: unexpected field %s", kind, k)
				}
			}
		}
		return nil
	}
	var err error
	switch kind {
	case "compute":
		op.Kind = OpCompute
		if err = need("dur"); err == nil && vals["dur"] < 0 {
			err = fmt.Errorf("op compute: negative dur %d", vals["dur"])
		}
	case "send":
		op.Kind = OpSend
		err = need("peer", "bytes", "tag")
	case "recv":
		op.Kind = OpRecv
		err = need("peer", "tag")
	case "isend":
		op.Kind = OpIsend
		err = need("peer", "bytes", "tag")
	case "wait":
		op.Kind = OpWait
		err = need()
	case "barrier":
		op.Kind = OpBarrier
		err = need("comm")
	case "allreduce":
		op.Kind = OpAllreduce
		err = need("comm", "bytes")
	case "sbrk":
		op.Kind = OpSbrk
		err = need("bytes")
	case "split":
		op.Kind = OpCommSplit
		err = need("comm", "color")
	default:
		err = fmt.Errorf("unknown op %q", kind)
	}
	if err != nil {
		return op, err
	}
	op.Dur = vtime.Duration(vals["dur"])
	op.Peer = int(vals["peer"])
	op.Bytes = uint64(vals["bytes"])
	op.Tag = int(vals["tag"])
	op.Comm = int(vals["comm"])
	op.Color = int(vals["color"])
	return op, nil
}
