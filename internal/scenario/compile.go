package scenario

import (
	"fmt"

	"mana/internal/vtime"
)

// MaxRanks bounds every job's rank count — compiled (Params.Ranks) or
// replayed (a trace header) — so malformed input is refused before it
// sizes a per-rank allocation. It is the largest scale any test or
// benchmark runs.
const MaxRanks = 65536

// Params sizes a compilation: everything about a run that is not part of
// the workload's shape.
type Params struct {
	// Ranks is the number of ranks to compile programs for, in
	// [1, MaxRanks].
	Ranks int
	// Steps is the iteration count for phases that do not pin their own.
	Steps int
	// Seed drives the per-rank jitter streams; the same spec, Params and
	// seed always compile to bit-identical programs.
	Seed uint64
	// Group, when non-zero, overrides the group width of every comm-split
	// in the spec (clamped to Ranks).
	Group int
}

// Compile materialises one Program per rank. Compilation is sequential
// and deterministic: each rank's jitter stream is seeded from Seed and
// the rank id alone, so programs are independent of compilation order.
func (s *Spec) Compile(p Params) ([]Program, error) {
	// Re-validate so programmatically built specs get the same field-level
	// errors (and duration parsing) as file-loaded ones.
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if p.Ranks < 1 || p.Ranks > MaxRanks {
		return nil, fmt.Errorf("scenario: compile %q: ranks must be in [1, %d] (got %d)", s.Name, MaxRanks, p.Ranks)
	}
	if p.Steps < 0 {
		return nil, fmt.Errorf("scenario: compile %q: steps must be non-negative (got %d)", s.Name, p.Steps)
	}
	if p.Group != 0 && p.Group < 2 {
		return nil, fmt.Errorf("scenario: compile %q: group must be at least 2 (got %d)", s.Name, p.Group)
	}
	for pi, ph := range s.Phases {
		for oi, op := range ph.Ops {
			if (op.Op == "scatter" || op.Op == "gather" || op.Who == "root" || op.Who == "others") && op.Root >= p.Ranks {
				return nil, fmt.Errorf("scenario: compile %q: phases[%d].ops[%d].root: rank %d out of range for %d ranks", s.Name, pi, oi, op.Root, p.Ranks)
			}
		}
	}
	progs := make([]Program, p.Ranks)
	for id := 0; id < p.Ranks; id++ {
		progs[id] = s.compileRank(id, p)
	}
	return progs, nil
}

func (s *Spec) compileRank(id int, p Params) Program {
	rng := vtime.NewRNG(p.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	right := (id + 1) % p.Ranks
	left := (id - 1 + p.Ranks) % p.Ranks

	var prog Program
	for _, sp := range s.Splits {
		g := sp.Group
		if p.Group > 0 {
			g = p.Group
		}
		if g > p.Ranks {
			g = p.Ranks
		}
		shift := sp.Shift
		if sp.ShiftHalfGroup {
			shift = g / 2
		}
		prog = append(prog, Op{Kind: OpCommSplit, Comm: 0, Color: (id + shift) / g})
	}

	step := 0
	for _, ph := range s.Phases {
		steps := ph.Steps
		if steps == 0 {
			steps = p.Steps
		}
		for ps := 0; ps < steps; ps++ {
			for _, op := range ph.Ops {
				if !op.When.match(ps) {
					continue
				}
				if !op.emitFor(id) {
					continue
				}
				switch op.Op {
				case "compute":
					scale := op.Scale
					if scale == 0 {
						scale = 1
					}
					dur := vtime.Duration(float64(op.mean) * rng.Jitter(op.Jitter) * scale)
					prog = append(prog, Op{Kind: OpCompute, Dur: dur})
				case "ring":
					if p.Ranks < 2 {
						continue
					}
					to, from := right, left
					if op.Dir == "left" {
						to, from = left, right
					}
					if op.Mode == "isend" {
						prog = append(prog,
							Op{Kind: OpIsend, Peer: to, Bytes: op.payload(rng), Tag: step},
							Op{Kind: OpRecv, Peer: from, Tag: step},
							Op{Kind: OpWait},
						)
					} else {
						prog = append(prog,
							Op{Kind: OpSend, Peer: to, Bytes: op.payload(rng), Tag: step},
							Op{Kind: OpRecv, Peer: from, Tag: step},
						)
					}
				case "alltoall":
					if p.Ranks < 2 {
						continue
					}
					for k := 1; k < p.Ranks; k++ {
						prog = append(prog, Op{Kind: OpSend, Peer: (id + k) % p.Ranks, Bytes: op.payload(rng), Tag: step})
					}
					for k := 1; k < p.Ranks; k++ {
						prog = append(prog, Op{Kind: OpRecv, Peer: (id + k) % p.Ranks, Tag: step})
					}
				case "scatter":
					if p.Ranks < 2 {
						continue
					}
					if id == op.Root {
						for peer := 0; peer < p.Ranks; peer++ {
							if peer == op.Root {
								continue
							}
							prog = append(prog, Op{Kind: OpSend, Peer: peer, Bytes: op.payload(rng), Tag: step})
						}
					} else {
						prog = append(prog, Op{Kind: OpRecv, Peer: op.Root, Tag: step})
					}
				case "gather":
					if p.Ranks < 2 {
						continue
					}
					if id == op.Root {
						for peer := 0; peer < p.Ranks; peer++ {
							if peer == op.Root {
								continue
							}
							prog = append(prog, Op{Kind: OpRecv, Peer: peer, Tag: step})
						}
					} else {
						prog = append(prog, Op{Kind: OpSend, Peer: op.Root, Bytes: op.payload(rng), Tag: step})
					}
				case "pipeline":
					if p.Ranks < 2 {
						continue
					}
					if id > 0 {
						prog = append(prog, Op{Kind: OpRecv, Peer: id - 1, Tag: step})
					}
					if id < p.Ranks-1 {
						prog = append(prog, Op{Kind: OpSend, Peer: id + 1, Bytes: op.payload(rng), Tag: step})
					}
				case "allreduce":
					prog = append(prog, Op{Kind: OpAllreduce, Comm: op.Comm, Bytes: op.Bytes})
				case "barrier":
					prog = append(prog, Op{Kind: OpBarrier, Comm: op.Comm})
				case "sbrk":
					prog = append(prog, Op{Kind: OpSbrk, Bytes: op.Bytes})
				}
			}
			step++
		}
	}
	return prog
}

// emitFor applies the op's Who selector for the given rank.
func (op *OpSpec) emitFor(id int) bool {
	switch op.Who {
	case "root":
		return id == op.Root
	case "others":
		return id != op.Root
	default:
		return true
	}
}

// payload is the op's point-to-point message size, with one deterministic
// jitter draw per emitted message when bytes_jitter is set.
func (op *OpSpec) payload(rng *vtime.RNG) uint64 {
	if op.BytesJitter <= 0 {
		return op.Bytes
	}
	return uint64(float64(op.Bytes) * rng.Jitter(op.BytesJitter))
}

// MustPrograms loads a library spec and compiles it, panicking on any
// error. It exists for defaults and tests, where the spec is known good.
func MustPrograms(name string, p Params) []Program {
	spec, err := Load(name)
	if err != nil {
		panic(err)
	}
	progs, err := spec.Compile(p)
	if err != nil {
		panic(err)
	}
	return progs
}
