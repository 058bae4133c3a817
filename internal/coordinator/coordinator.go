// Package coordinator implements MANA's checkpoint coordination protocol
// (paper §3.1–3.2) over the simulated rank runtime.
//
// The coordinator drives an event-driven virtual-time scheduler: every
// state transition in the job — a rank becoming ready to execute its next
// scripted operation, a point-to-point message arriving, a collective
// completing, a checkpoint trigger coming due, an injected failure — is
// an event on a deterministic (time, seq)-ordered queue. Ranks that are
// blocked in a receive or waiting in a collective have no queued events
// and therefore consume zero scheduler work, which is what lets the
// simulator scale to thousands of mostly idle ranks.
//
// Events live on a sharded vtime.IslandQueues: ranks are partitioned
// into islands (netsim topology groups when configured, contiguous
// blocks otherwise), each island owning one event-queue lane for its
// ranks' ready and delivery events, plus one global lane for the
// events that touch cross-island state (collective completions,
// checkpoint triggers, failure injection). With Config.Workers <= 1 the
// lanes are merged into the exact single-queue order and popped one at
// a time; with Workers > 1 the scheduler interleaves that serial mode
// with conservative parallel windows (see window.go) in which each
// island's worker drains its own lane up to a lookahead horizon derived
// from the minimum cross-island network latency. Cross-island effects
// are buffered per island and merged at the window barrier in a
// deterministic order, so reports are byte-identical for any worker
// count, island count and GOMAXPROCS — the property the 1-vs-N-worker
// CI smoke pins.
//
// Checkpoint requests are serviced with the paper's two-phase protocol:
//
//	Phase 1 (quiesce): broadcast checkpoint intent to every rank. Ranks
//	stop starting new operations at their next call boundary (no ready
//	events are dispatched past a pending request). If any rank is
//	inside a collective, all ranks keep executing until that collective
//	completes — a checkpoint never lands mid-collective. Then the
//	in-flight point-to-point messages are drained: the per-pair
//	send/receive counters are compared and every outstanding message is
//	received into the destination rank's buffer, until the counters
//	agree that the network is quiescent.
//
//	Phase 2 (commit): a per-rank pipeline — capture, dedup, write. Each
//	rank captures its image (full on the first checkpoint and on the
//	Config.FullImageEvery cadence, otherwise an incremental delta
//	carrying only the pages dirtied since the previous checkpoint, with
//	pages rewritten to identical contents deduplicated against the last
//	committed generation), is charged the page-table scan and per-page
//	hash costs of the capture, and then the image write time per dirty
//	byte actually carried through the storage pipeline (stragglers
//	emerge from PFS contention), all to its checkpoint-overhead account.
//
// Restart discards every rank's lower half, bootstraps a fresh one,
// replays the saved upper-half region maps, restores clocks and network
// counters, clears the event queue (events of the abandoned timeline die
// with it) and re-seeds ready events from the restored state. Because
// checkpoint activity is accounted outside the application clocks, a
// restarted run reaches bit-identical virtual-time results to an
// uncheckpointed one — the property the determinism tests pin down.
package coordinator

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"mana/internal/faultplan"
	"mana/internal/kernelsim"
	"mana/internal/memsim"
	"mana/internal/netsim"
	"mana/internal/rank"
	"mana/internal/scenario"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// Trigger schedules one checkpoint request.
type Trigger struct {
	// At requests the checkpoint once virtual time reaches this point.
	At vtime.Time
	// MidCollective, when set, instead requests the checkpoint at the
	// first moment (not before At) at which a collective is partially
	// arrived — some but not all ranks inside it. This exercises the
	// protocol's deferral path deterministically.
	MidCollective bool
	// InFlight, when set, instead requests the checkpoint at the first
	// moment (not before At) at which point-to-point messages are in
	// flight — sent but not yet received — so the drain phase has real
	// work to do.
	InFlight bool
	// FormingColls, when positive, instead requests the checkpoint at
	// the first moment (not before At) at which at least this many
	// collectives are simultaneously in flight, so the drain planner has
	// a non-trivial dependency graph to sort.
	FormingColls int
}

// Config parameterises one simulated job.
type Config struct {
	// Ranks is the number of simulated MPI ranks.
	Ranks int
	// Personality selects the kernel cost model for every node.
	Personality kernelsim.Personality
	// Virtid selects the handle-virtualisation table implementation every
	// rank uses on its per-call hot path (and thereby the calibrated
	// per-lookup cost the kernel model charges).
	Virtid virtid.Impl
	// Net is the interconnect cost model.
	Net netsim.Params
	// Programs carries one op stream per rank (index = rank id), compiled
	// from a scenario spec, read from a recorded trace, or — in tests —
	// built directly (scenario.PerRank) to stage precise protocol
	// situations. New panics unless len(Programs) == Ranks.
	Programs []scenario.Program
	// Storage is the two-tier checkpoint I/O model (internal/storage):
	// a contended aggregate-bandwidth PFS, optional per-node burst-buffer
	// staging with asynchronous drain, and optional delta-page
	// compression. BaseConfig sets the direct contended default
	// (storage.DefaultConfig). Write stragglers emerge from PFS queueing
	// contention.
	Storage storage.Config
	// CkptReadBandwidth is the per-rank parallel-filesystem bandwidth for
	// restart reads. Zero or negative values model free (instantaneous)
	// I/O, matching netsim.Params.SerializeCost.
	CkptReadBandwidth float64
	// Incremental enables delta checkpoint images: after the first (full)
	// checkpoint, images carry only the pages dirtied since the previous
	// one, so commit cost tracks dirty bytes instead of address-space
	// size. Restart materialises the base+delta chain back into full
	// state, bit-identical to full-image checkpointing.
	Incremental bool
	// FullImageEvery bounds the restart chain when Incremental is set: a
	// self-contained full image is emitted every Nth checkpoint (1 = all
	// full, 0 = only the first; the chain then grows without bound).
	FullImageEvery int
	// Islands is the number of event-queue lanes ranks are partitioned
	// across (<= 0 means one island, the serial layout). When
	// Net.GroupSize is set, rank r lands on island (r/GroupSize) mod
	// Islands so a topology group is never split across islands —
	// cross-island messages then always pay the cross-group latency the
	// parallel lookahead is derived from. On a flat fabric the partition
	// is contiguous blocks. The partition never changes observable
	// output: island lanes merge into the exact single-queue order.
	Islands int
	// Workers is the number of goroutines draining island lanes during
	// parallel windows (<= 1 disables parallel execution entirely).
	// Worker count never changes observable output either, only
	// wall-clock time.
	Workers int
	// Seed only labels the report: it drives no RNG here. Workload
	// jitter is already compiled into Programs, and the scheduler is
	// deterministic.
	Seed uint64
	// Triggers are the scheduled checkpoint requests.
	Triggers []Trigger
	// FailAtCheckpoint, when non-zero, simulates a job failure FailDelay
	// of virtual time after checkpoint number FailAtCheckpoint commits;
	// Run then returns Failed and the caller restarts from the last
	// image. The delay is virtual time, not scheduler iterations: under
	// event dispatch "iterations" is not a meaningful unit. Internally it
	// compiles to a one-fault plan appended to Faults — the declarative
	// engine is the only failure machinery.
	//
	// Deprecated: set Faults instead; faultplan.Legacy expresses this
	// pair as a plan, and the fleet engine's Config translator no longer
	// sets it. It stays only while the perfbench module assigns it.
	FailAtCheckpoint int
	// FailDelay is the virtual-time delay FailAtCheckpoint's failure
	// fires after its commit.
	//
	// Deprecated: see FailAtCheckpoint.
	FailDelay vtime.Duration
	// Faults is the compiled fault plan: an ordered list of one-shot
	// injections at named protocol points (faultplan.Compile output).
	Faults []faultplan.Fault
	// RetainGenerations is how many full checkpoint generations are kept
	// on the simulated filesystem beyond the newest; restart falls back
	// through them when the newest links fail verification. BaseConfig
	// sets 2; zero retains only the newest generation (the legacy
	// behaviour).
	RetainGenerations int
	// MaxRestarts bounds the fleet engine's restart retry loop (failed
	// restart attempts included); the engine returns ErrRestartsExhausted
	// past it. Zero or negative means unbounded. BaseConfig sets 8.
	MaxRestarts int

	// Scratch, when non-nil, lends recycled allocations (event-queue
	// lanes, collective rendezvous storage, memsim buffers) to this run
	// and receives them back via Coordinator.Release. A Scratch must
	// back at most one live Coordinator at a time; the fleet engine owns
	// that discipline via a sync.Pool. Pooled storage is handed over
	// reset, so a scratch-backed run is byte-identical to a cold one.
	Scratch *Scratch
}

// BaseConfig returns the default cost-model parameters — bandwidths,
// storage, network, failure delay — without compiling any programs.
// Callers (the fleet engine's Config translator) overlay
// ranks, programs and triggers on top; DefaultConfig adds the default
// 8-rank workload for tests that want a complete runnable config.
func BaseConfig() Config {
	return Config{
		Ranks:             8,
		Personality:       kernelsim.Unpatched,
		Virtid:            virtid.ImplSharded,
		Net:               netsim.DefaultParams(),
		Storage:           storage.DefaultConfig(),
		CkptReadBandwidth: 4e9,
		FullImageEvery:    4,
		Seed:              42,
		// FailDelay is the deterministic mapping of the old scheduler's
		// 25-iteration failure countdown: at the default workload
		// granularity one full-scan iteration advanced virtual time by
		// roughly one compute phase (~250us), so the failure lands a few
		// application steps after the checkpoint commits.
		FailDelay:         250 * vtime.Microsecond,
		RetainGenerations: 2,
		MaxRestarts:       8,
	}
}

// DefaultConfig returns a runnable 8-rank configuration.
func DefaultConfig() Config {
	cfg := BaseConfig()
	cfg.Programs = scenario.MustPrograms("default", scenario.Params{Ranks: 8, Steps: 30, Seed: 42})
	return cfg
}

// Outcome reports how a Run ended.
type Outcome int

const (
	// Completed means every rank exhausted its script.
	Completed Outcome = iota
	// Failed means the configured failure injection fired; the caller
	// should Restart and Run again.
	Failed
)

// String returns a human-readable outcome name.
func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	default:
		return "unknown"
	}
}

// CheckpointRecord describes one committed checkpoint.
type CheckpointRecord struct {
	Seq           int
	RequestedAt   vtime.Time
	MidCollective bool
	// SafeAt is the virtual time (max rank clock) at which the safe
	// point was reached and draining began.
	SafeAt vtime.Time
	// DeferredFor is how much virtual application progress elapsed
	// between the request and the safe point (non-zero when the request
	// landed mid-collective).
	DeferredFor  vtime.Duration
	DrainedMsgs  int
	DrainedBytes uint64
	// ImageBytes is what this checkpoint actually wrote to the parallel
	// filesystem: full snapshots, or only the carried (post-dedup) dirty
	// pages for incremental images.
	ImageBytes uint64
	// FullBytes is what self-contained images of the same state would
	// have written; ImageBytes/FullBytes is the incremental saving.
	FullBytes uint64
	// DirtyBytes counts the bytes in pages dirtied since the previous
	// checkpoint, before dedup (equal to ImageBytes for full images).
	DirtyBytes uint64
	// DedupBytes counts dirty page bytes dropped because their contents
	// were bit-identical to the previous committed generation.
	DedupBytes uint64
	// FullImages and DeltaImages count per-rank image modes (a rank with
	// no committed base falls back to full even mid-chain).
	FullImages  int
	DeltaImages int
	// MaxWriteTime is the slowest rank's image write (PFS queueing included);
	// for incremental checkpoints it is charged per dirty byte carried.
	MaxWriteTime vtime.Duration
	// DrainPlanned counts the in-flight collectives the dependency-
	// ordered drain (arXiv:2408.02218) completed before this checkpoint
	// could land, including collectives that entered the plan while the
	// drain ran; OverlapWidth is how many were simultaneously in flight
	// when the plan was built; DrainEvents counts the scheduler events
	// dispatched while draining. All zero for a request serviced at an
	// immediate safe point.
	DrainPlanned int
	OverlapWidth int
	DrainEvents  uint64
	// StoredBytes is what the storage layer actually moved for this
	// checkpoint: ImageBytes after the delta-page compression stage
	// (equal to ImageBytes when compression is off).
	StoredBytes uint64
	// CompressSavedBytes and CompressTime account the per-page delta
	// compressor: PFS bytes saved versus kernel CPU charged to the
	// ranks' checkpoint-overhead clocks.
	CompressSavedBytes uint64
	CompressTime       vtime.Duration
	// StagedBytes and SpilledBytes split the stored payload between the
	// node burst buffers and the synchronous PFS write-through forced by
	// capacity overflow (both zero without staging).
	StagedBytes  uint64
	SpilledBytes uint64
	// PFSWait is the total virtual time this checkpoint's PFS transfers
	// — direct writes, capacity spills, asynchronous drains — spent
	// queued behind other transfers on the contended filesystem: the
	// emergent-straggler signal that replaced the dialled-in model.
	PFSWait vtime.Duration
	// DurableAt is when this checkpoint's link finished draining to the
	// PFS and became a durable restore candidate; for direct writes it
	// equals SafeAt + MaxWriteTime.
	DurableAt vtime.Time
	// TornImages counts per-rank images whose PFS write was interrupted by
	// an injected torn-write fault (Complete == false, partial payload);
	// CorruptPages counts pages silently damaged by injected
	// page-corruption faults. Both zero for a clean checkpoint.
	TornImages   int
	CorruptPages int
	// DrainTornImages and DrainCorruptPages count injected faults on the
	// buffer→PFS drain hop ("image-write/drain" anchors): the damage
	// lands on the durable copy after the commit fingerprinted the clean
	// staged payload, so the run continues and the damage surfaces only
	// at restart verification.
	DrainTornImages   int
	DrainCorruptPages int
	// Fingerprint digests every rank's image for determinism checks.
	Fingerprint uint64
}

// DedupRatio reports the fraction of dirty bytes dropped by dedup.
func (r CheckpointRecord) DedupRatio() float64 {
	if r.DirtyBytes == 0 {
		return 0
	}
	return float64(r.DedupBytes) / float64(r.DirtyBytes)
}

// RestartRecord describes one successful restart.
type RestartRecord struct {
	FromSeq int
	// ResumeClock is the restored maximum rank clock.
	ResumeClock vtime.Time
	// FallbackDepth is how many committed checkpoints the restore point
	// sits behind the newest (0 = restored from the newest link; each
	// torn, corrupt or poisoned link walks it one deeper).
	FallbackDepth int
	// LostWork is the virtual application time the fallback discards: the
	// dead timeline's high-water clock minus the restored clock — work the
	// replay must recompute.
	LostWork vtime.Duration
	// TornLinks and CorruptLinks count chain links rejected during the
	// verification walk (across retried attempts of this restart);
	// VerifiedPages and VerifyTime account the per-page rehash cost
	// the walk charged to the ranks' checkpoint-overhead clocks.
	TornLinks     int
	CorruptLinks  int
	VerifiedPages int
	VerifyTime    vtime.Duration
	// BufferOnlyLinks counts links the walk skipped because their images
	// were staged in node burst buffers but never finished draining to
	// the PFS when the job died — copies that died with the node, not
	// restore candidates. They are rejected on metadata alone, without
	// per-page verification cost.
	BufferOnlyLinks int
}

// request is one in-flight checkpoint request.
type request struct {
	at            vtime.Time
	midCollective bool
	// trigger is the index of the trigger that fired this request, so a
	// restart can un-consume triggers whose checkpoint never committed.
	trigger int
}

// chainLink is one committed checkpoint: the per-rank images plus the
// network counter snapshot taken at its commit point, so restart can
// resume from any verified link of a chain, not only the newest.
type chainLink struct {
	seq      int
	images   []rank.Image
	counters netsim.Counters
	// durable marks the link's images safe on the PFS: written directly,
	// or with every burst-buffer copy drained. Restart only restores
	// from durable links — a staged-but-undrained copy dies with the
	// node's buffers.
	durable bool
	// pendingDrains counts the per-rank drains still in flight;
	// staged[r] records rank r's staged bytes so the drain-done event
	// (or generation retirement) can free its buffer occupancy. staged
	// is nil for direct links.
	pendingDrains int
	staged        []uint64
}

// generation is one full-image checkpoint plus the incremental links
// committed on top of it: links[0] is always full, every later link a
// delta onto its predecessor. The coordinator retains the newest
// generation plus Config.RetainGenerations older ones, and restart walks
// them newest-first to the newest verifiable restore point.
type generation struct {
	links []chainLink
}

// materializeLink folds rank i's image chain up to (and including) link
// index li into one full image, returning it together with the bytes
// restart had to read to do so.
func (g *generation) materializeLink(li, i int) (rank.Image, uint64) {
	img := g.links[0].images[i]
	readBytes := img.Bytes()
	for _, link := range g.links[1 : li+1] {
		readBytes += link.images[i].Bytes()
		img = rank.Overlay(img, link.images[i])
	}
	return img, readBytes
}

// eventKind identifies one scheduler event type.
type eventKind int

const (
	// evRankReady dispatches one rank's next scripted operation.
	evRankReady eventKind = iota
	// evDelivery makes a message visible at its receiver; if the
	// receiver is blocked on a matching receive it is woken.
	evDelivery
	// evCollectiveDone completes the forming collective for every
	// participant.
	evCollectiveDone
	// evTrigger arms or fires one checkpoint trigger at its At time.
	evTrigger
	// evFail is the injected failure.
	evFail
	// evDrainDone completes one rank's asynchronous burst-buffer→PFS
	// drain for one committed checkpoint. It lives on the global lane —
	// it mutates chain-link durability, cross-island state — so parallel
	// windows never run past one.
	evDrainDone
)

// event is one entry on the virtual-time queue. Exactly one payload
// field group is meaningful per kind.
type event struct {
	kind       eventKind
	rank       int             // evRankReady; evDrainDone: draining rank
	msg        *netsim.Message // evDelivery
	trigger    int             // evTrigger: index into cfg.Triggers; evFail: index into faults; evDrainDone: checkpoint seq
	completion vtime.Time      // evCollectiveDone
	comm       int             // evCollectiveDone: communicator the collective ran over
	seq        uint64          // evCollectiveDone: forming-instance number (staleness guard)
}

// comm is one communicator the job knows: id 0 is MPI_COMM_WORLD,
// higher ids are minted by comm-split completions in deterministic
// (colour-sorted) order. Members are sorted rank ids.
type comm struct {
	members []int
}

// forming is the rendezvous of one in-flight collective: the ranks that
// have arrived at the collective currently forming on one communicator,
// in arrival order. planned and waiting are drain-mode state: whether
// the collective is part of the current drain plan, and which live
// members the plan still expects to arrive.
type forming struct {
	commID    int
	seq       uint64 // global collective-instance number (deterministic)
	kind      netsim.CollectiveKind
	bytes     uint64
	stamps    []vtime.Stamp
	ranks     []int
	colors    []int // per-arrival colours, comm-splits only
	scheduled bool
	planned   bool
	waiting   map[int]bool
}

// Coordinator owns the ranks, the network and the checkpoint protocol.
type Coordinator struct {
	cfg   Config
	ranks []*rank.Rank
	net   *netsim.Network
	// mempool backs every rank's address-space buffers; it comes from
	// the run's Scratch so buffers recycle across runs (and across
	// restarts within a run).
	mempool *memsim.Pool

	// queues holds islands+1 lanes: lanes [0, islands) carry one
	// island's ready/delivery events, lane islands (the global lane)
	// carries collective completions, triggers and the failure event —
	// everything that mutates cross-island state and therefore only
	// executes at serial points.
	queues   *vtime.IslandQueues[event]
	islands  int
	workers  int
	islandOf []int // rank id -> island lane
	// lookahead is the conservative parallel window width: no event can
	// influence another island sooner than this far in the future
	// (netsim.Params.CrossLookahead). Zero disables parallel windows.
	lookahead vtime.Duration
	// inWindow marks that worker goroutines currently own the island
	// lanes; ScheduleDelivery routes through per-island buffers instead
	// of merge-mode pushes while it is set. Written only while no
	// workers run.
	inWindow bool
	lanebufs []laneBuf

	triggers []Trigger
	fired    []bool
	// unfired counts triggers that have not fired yet; parallel windows
	// require it to be zero so trigger arming (whose conditions must be
	// re-checked after every single event) always runs serially.
	unfired int
	// armed holds indexes of condition triggers (MidCollective/InFlight)
	// whose At time has passed; their conditions are re-checked after
	// every dispatched event.
	armed   []int
	pending []request

	// Communicator registry: comms[0] is MPI_COMM_WORLD; comm-split
	// completions append sub-communicators in deterministic order. It is
	// rebuilt from the restored rank images on restart.
	comms []comm

	// Collective rendezvous state: one forming instance per communicator
	// with arrivals outstanding. colls indexes by communicator id;
	// collList keeps instance order (by seq) so every iteration over the
	// in-flight set — scheduling re-checks, drain-graph construction,
	// deadlock diagnostics — is deterministic. collSeq numbers instances;
	// formingPool recycles completed rendezvous so the steady-state event
	// loop does not allocate per collective. inCollComm[r] is the
	// communicator rank r is currently waiting in (-1 when it is not
	// inside a collective) — the shared-rank information the drain
	// planner's edges are built from.
	colls       map[int]*forming
	collList    []*forming
	collSeq     uint64
	formingPool []*forming
	inCollComm  []int

	// Drain-mode state (see drainplan.go): while draining, ranks the
	// plan does not need are held at their next collective boundary and
	// consume no scheduler work until the checkpoint commits.
	draining         bool
	plan             *drainPlan
	held             map[int]bool
	drainStartEvents uint64

	// doneCount and maxClock are maintained incrementally so the hot
	// loop never scans all ranks.
	doneCount int
	maxClock  vtime.Time

	records  []CheckpointRecord
	restarts []RestartRecord
	// gens holds the retained committed generations, oldest first; the
	// last element is the chain new deltas extend. Empty until the first
	// checkpoint commits.
	gens []*generation

	// Fault-plan state: faults is the compiled plan (legacy
	// FailAtCheckpoint appended as a one-fault plan), faultFired marks
	// each as consumed (every fault is one-shot), poisoned records the
	// checkpoint seqs an injected restart fault destroyed mid-restore, and
	// restartAttempts counts Restart calls (failed ones included) — the
	// ordinal restart faults key on. pendTorn/pendCorrupt/pendVerifyPages/
	// pendVerifyTime accumulate verification-walk accounting across the
	// failed attempts of one restart, folded into the RestartRecord of the
	// attempt that succeeds.
	faults          []faultplan.Fault
	faultFired      []bool
	poisoned        map[int]bool
	restartAttempts int
	pendTorn        int
	pendCorrupt     int
	pendVerifyPages int
	pendVerifyTime  vtime.Duration
	pendBufferOnly  int

	// Storage-pipeline state: pfs is the contended shared-filesystem
	// server every synchronous write, capacity spill and asynchronous
	// drain queues on; bbUsed tracks each rank's staged-but-undrained
	// burst-buffer occupancy (allocated only when staging is on);
	// drainReqs is the per-checkpoint drain-request scratch. All of it
	// hangs off the Coordinator, so concurrent fleet runs never share
	// queue state, and Restart resets it — transfers of an abandoned
	// timeline die with it.
	pfs       storage.PFS
	bbUsed    []uint64
	drainReqs []drainReq

	// events counts dispatched queue events; rankVisits counts how many
	// times the scheduler touched a rank (op execution, wake attempt,
	// collective completion). Under the old full-scan loop the visit
	// count was iterations x ranks; here it scales with actual work.
	events     uint64
	rankVisits uint64
}

// drainReq is one rank's staged payload awaiting its asynchronous
// burst-buffer→PFS drain, queued at the time its staging write finished.
type drainReq struct {
	rank   int
	bytes  uint64
	arrive vtime.Time
}

// New builds a job from the config: one rank per ID with a generated
// SPMD script, a fresh network wired for event-driven delivery, the
// configured triggers scheduled, and every rank's first ready event
// seeded.
func New(cfg Config) *Coordinator {
	if cfg.Ranks <= 0 {
		panic("coordinator: config needs at least one rank")
	}
	if len(cfg.Programs) != cfg.Ranks {
		panic(fmt.Sprintf("coordinator: config carries %d programs for %d ranks", len(cfg.Programs), cfg.Ranks))
	}
	islands := cfg.Islands
	if islands <= 0 {
		islands = 1
	}
	if islands > cfg.Ranks {
		islands = cfg.Ranks
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > islands {
		workers = islands
	}
	world := make([]int, cfg.Ranks)
	for i := range world {
		world[i] = i
	}
	// A scratch-backed run draws its expensive storage — queue lanes,
	// per-rank slices, rendezvous instances, memsim buffers — from the
	// retired run that fed the scratch; a cold run allocates the same
	// shapes fresh. Either way the storage starts at its zero point, so
	// the two runs are byte-identical.
	sc := cfg.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	c := &Coordinator{
		cfg: cfg,
		net: netsim.New(cfg.Net),
		// One lane per island plus the global lane, each preallocated
		// for its steady-state population (one ready event per rank).
		queues:      sc.takeQueues(islands+1, cfg.Ranks/islands+16),
		islands:     islands,
		workers:     workers,
		islandOf:    takeSlice(&sc.islandOf, cfg.Ranks),
		lookahead:   cfg.Net.CrossLookahead(),
		lanebufs:    sc.takeLanebufs(islands),
		triggers:    append([]Trigger(nil), cfg.Triggers...),
		fired:       takeSlice(&sc.fired, len(cfg.Triggers)),
		unfired:     len(cfg.Triggers),
		ranks:       sc.takeRanks(cfg.Ranks),
		formingPool: sc.takeForming(),
		comms:       []comm{{members: world}},
		colls:       make(map[int]*forming),
		inCollComm:  takeSlice(&sc.inCollComm, cfg.Ranks),
		held:        sc.takeHeld(),
		mempool:     sc.mem,
		pfs:         storage.NewPFS(cfg.Storage.PFSBandwidth),
	}
	if cfg.Storage.Staging {
		c.bbUsed = make([]uint64, cfg.Ranks)
	}
	for id := range c.islandOf {
		if cfg.Net.GroupSize > 0 {
			// A topology group is never split across islands, so every
			// cross-island message pays at least CrossLookahead.
			c.islandOf[id] = (id / cfg.Net.GroupSize) % islands
		} else {
			// Flat fabric: contiguous blocks of Ranks/islands.
			c.islandOf[id] = id * islands / cfg.Ranks
		}
	}
	for i := range c.inCollComm {
		c.inCollComm[i] = -1
	}
	c.net.SetDeliveryScheduler(c)
	for i, t := range c.triggers {
		c.queues.Push(c.globalLane(), t.At, event{kind: evTrigger, trigger: i})
	}
	// The fault plan: the legacy FailAtCheckpoint/FailDelay pair compiles
	// to a one-fault plan appended after the declarative faults, so the
	// two mechanisms are one engine. Virtual-time faults are scheduled up
	// front like triggers — on the global lane, so parallel windows never
	// run past one.
	c.faults = append(c.faults, cfg.Faults...)
	if cfg.FailAtCheckpoint > 0 {
		c.faults = append(c.faults, faultplan.Fault{
			Anchor: faultplan.AtCheckpointCommit,
			N:      cfg.FailAtCheckpoint,
			Kind:   faultplan.RankCrash,
			Delay:  cfg.FailDelay,
		})
	}
	if len(c.faults) > 0 {
		c.faultFired = make([]bool, len(c.faults))
	}
	for i, f := range c.faults {
		if f.Anchor == faultplan.AtVirtualTime {
			c.queues.Push(c.globalLane(), f.Time, event{kind: evFail, trigger: i})
		}
	}
	for id := 0; id < cfg.Ranks; id++ {
		r := rank.NewPooled(id, cfg.Personality, cfg.Virtid, cfg.Programs[id], c.mempool)
		r.SetIsland(c.islandOf[id])
		c.ranks = append(c.ranks, r)
		if r.State() == rank.Done {
			c.doneCount++
		} else {
			c.scheduleReady(r)
		}
	}
	return c
}

// globalLane is the lane index of the global (cross-island) event lane.
func (c *Coordinator) globalLane() int { return c.islands }

// ScheduleDelivery implements netsim.DeliveryScheduler: every injected
// message becomes a delivery event on the receiver's island lane at its
// arrival time. In serial mode it is invoked from the scheduler
// goroutine; during a parallel window it is invoked from the worker
// goroutine executing the sender, which owns the sender's lane — an
// intra-island delivery is pushed onto that lane directly, a
// cross-island one is buffered on the sender's island and merged at the
// window barrier (its arrival is at or past the horizon by the
// lookahead argument, so no worker has run past it).
func (c *Coordinator) ScheduleDelivery(m *netsim.Message) {
	lane := c.islandOf[m.Dst]
	if c.inWindow {
		src := c.islandOf[m.Src]
		if src == lane {
			c.queues.WorkerPush(lane, m.Arrive, event{kind: evDelivery, msg: m})
		} else {
			buf := &c.lanebufs[src]
			buf.msgs = append(buf.msgs, m)
		}
		return
	}
	c.queues.Push(lane, m.Arrive, event{kind: evDelivery, msg: m})
}

// scheduleReady queues the rank's next ready event on its island lane,
// if it has one.
func (c *Coordinator) scheduleReady(r *rank.Rank) {
	if t, ok := r.NextReady(); ok {
		c.queues.Push(c.islandOf[r.ID()], t, event{kind: evRankReady, rank: r.ID()})
	}
}

// noteClock raises the job's virtual-time high-water mark.
func (c *Coordinator) noteClock(t vtime.Time) {
	if t > c.maxClock {
		c.maxClock = t
	}
}

// Ranks returns the simulated ranks.
func (c *Coordinator) Ranks() []*rank.Rank { return c.ranks }

// Net returns the simulated interconnect.
func (c *Coordinator) Net() *netsim.Network { return c.net }

// Records returns the committed checkpoint records.
func (c *Coordinator) Records() []CheckpointRecord { return c.records }

// Restarts returns the restart records.
func (c *Coordinator) Restarts() []RestartRecord { return c.restarts }

// EventsDispatched returns the number of queue events popped so far.
func (c *Coordinator) EventsDispatched() uint64 { return c.events }

// RankVisits returns how many times the scheduler touched a rank: one
// per executed operation, wake attempt and collective completion. The
// old full-scan loop visited every rank on every iteration; this counter
// is what the scaling tests compare against that baseline.
func (c *Coordinator) RankVisits() uint64 { return c.rankVisits }

// MaxClock returns the maximum rank clock — the job's virtual makespan so
// far. It scans all ranks and is intended for reports and checkpoint
// records, not the per-event hot path (which uses the incremental
// high-water mark).
func (c *Coordinator) MaxClock() vtime.Time {
	var max vtime.Time
	for _, r := range c.ranks {
		if t := r.Clock().Now(); t > max {
			max = t
		}
	}
	return max
}

func (c *Coordinator) nonDone() int { return c.cfg.Ranks - c.doneCount }

// inCollective counts the ranks currently waiting inside any forming
// collective.
func (c *Coordinator) inCollective() int {
	n := 0
	for _, f := range c.collList {
		n += len(f.ranks)
	}
	return n
}

// collectiveInProgress reports whether any collective is in flight.
func (c *Coordinator) collectiveInProgress() bool { return len(c.collList) > 0 }

// atSafePoint reports whether a checkpoint may proceed: no collective is
// in flight on any communicator (paper §3.2 — a checkpoint either
// completes the in-flight collectives first, in dependency order, or
// sits out until they have).
func (c *Coordinator) atSafePoint() bool { return !c.collectiveInProgress() }

// liveMembers counts a communicator's members whose scripts are not
// exhausted — the participation bar a forming collective must reach.
func (c *Coordinator) liveMembers(commID int) int {
	if commID == 0 {
		return c.nonDone()
	}
	n := 0
	for _, id := range c.comms[commID].members {
		if c.ranks[id].State() != rank.Done {
			n++
		}
	}
	return n
}

func (c *Coordinator) allDone() bool { return c.doneCount == c.cfg.Ranks }

// fireTrigger converts trigger i into a pending checkpoint request.
func (c *Coordinator) fireTrigger(i int) {
	c.fired[i] = true
	c.unfired--
	c.pending = append(c.pending, request{at: c.maxClock, midCollective: c.collectiveInProgress(), trigger: i})
}

// armTrigger handles trigger i's At time coming due: plain virtual-time
// triggers fire immediately; condition triggers (mid-collective,
// in-flight) join the armed set and are checked after every event.
func (c *Coordinator) armTrigger(i int) {
	if c.fired[i] {
		return
	}
	t := c.triggers[i]
	if !t.MidCollective && !t.InFlight && t.FormingColls == 0 {
		c.fireTrigger(i)
		return
	}
	c.armed = append(c.armed, i)
	c.checkArmedTriggers()
}

// checkArmedTriggers fires any armed condition trigger whose condition
// currently holds. With no armed triggers this is a single length check,
// so the per-event cost of trigger support is O(1).
func (c *Coordinator) checkArmedTriggers() {
	if len(c.armed) == 0 {
		return
	}
	kept := c.armed[:0]
	for _, i := range c.armed {
		t := c.triggers[i]
		due := false
		switch {
		case t.MidCollective:
			in := c.inCollective()
			due = in > 0 && in < c.nonDone()
		case t.InFlight:
			due = c.net.InFlight() > 0
		case t.FormingColls > 0:
			due = len(c.collList) >= t.FormingColls
		}
		if due {
			c.fireTrigger(i)
		} else {
			kept = append(kept, i)
		}
	}
	c.armed = kept
}

// newForming starts the rendezvous of a collective on one communicator,
// recycling a completed instance's storage when one is available.
func (c *Coordinator) newForming(commID int, kind netsim.CollectiveKind, bytes uint64) *forming {
	var f *forming
	if n := len(c.formingPool); n > 0 {
		f = c.formingPool[n-1]
		c.formingPool = c.formingPool[:n-1]
	} else {
		f = &forming{}
	}
	f.commID = commID
	f.seq = c.collSeq
	c.collSeq++
	f.kind = kind
	f.bytes = bytes
	c.colls[commID] = f
	c.collList = append(c.collList, f)
	return f
}

// removeForming retires a completed rendezvous and recycles its storage.
func (c *Coordinator) removeForming(f *forming) {
	delete(c.colls, f.commID)
	for i, g := range c.collList {
		if g == f {
			c.collList = append(c.collList[:i], c.collList[i+1:]...)
			break
		}
	}
	f.stamps = f.stamps[:0]
	f.ranks = f.ranks[:0]
	f.colors = f.colors[:0]
	f.scheduled = false
	f.planned = false
	f.waiting = nil
	c.formingPool = append(c.formingPool, f)
}

// maybeScheduleCollectiveDone schedules one collective's completion
// event once every live member of its communicator has arrived:
// completion time is the latest arrival stamp plus the modelled
// collective cost.
func (c *Coordinator) maybeScheduleCollectiveDone(f *forming) {
	n := len(f.ranks)
	if f.scheduled || n == 0 || n < c.liveMembers(f.commID) {
		return
	}
	latest := vtime.MaxStamp(f.stamps)
	completion := latest.When.Add(c.cfg.Net.CollectiveCost(f.kind, n, f.bytes))
	f.scheduled = true
	c.queues.Push(c.globalLane(), completion, event{kind: evCollectiveDone, comm: f.commID, seq: f.seq, completion: completion})
}

// collectiveKindOf maps a collective op onto the network cost model.
func collectiveKindOf(k scenario.OpKind) netsim.CollectiveKind {
	switch k {
	case scenario.OpBarrier:
		return netsim.Barrier
	case scenario.OpAllreduce:
		return netsim.Allreduce
	case scenario.OpCommSplit:
		return netsim.CommSplit
	default:
		panic(fmt.Sprintf("coordinator: op %v is not a collective", k))
	}
}

// joinCollective records one rank's arrival at the collective forming on
// its target communicator, starting the rendezvous if this is the first
// arrival. While a drain is in progress, a newly started collective
// joins the plan (only ranks the plan needs reach this point — everyone
// else is held at the boundary), and a planned collective's waiting set
// shrinks with each arrival.
func (c *Coordinator) joinCollective(r *rank.Rank, tr rank.Transition) {
	commID := r.CommID(tr.Op.Comm)
	kind := collectiveKindOf(tr.Op.Kind)
	f := c.colls[commID]
	if f == nil {
		f = c.newForming(commID, kind, tr.Op.Bytes)
	} else {
		if f.scheduled {
			panic(fmt.Sprintf("coordinator: rank %d arrived at comm %d %v after its completion was scheduled",
				r.ID(), commID, kind))
		}
		if f.kind != kind {
			panic(fmt.Sprintf("coordinator: rank %d arrived at %v while %v is forming on comm %d (non-SPMD script)",
				r.ID(), kind, f.kind, commID))
		}
	}
	f.stamps = append(f.stamps, tr.Stamp)
	f.ranks = append(f.ranks, r.ID())
	if kind == netsim.CommSplit {
		f.colors = append(f.colors, tr.Op.Color)
	}
	c.inCollComm[r.ID()] = commID
	if c.draining {
		if !f.planned {
			c.extendPlan(f)
		} else if f.waiting[r.ID()] {
			delete(f.waiting, r.ID())
			c.plan.needed[r.ID()]--
		}
	}
	c.maybeScheduleCollectiveDone(f)
}

// completeCollective finishes one communicator's collective for every
// participant: each advances to the completion time and its next ready
// event is scheduled. A comm-split additionally mints the new
// sub-communicators: arrivals are grouped by colour (colours ascending,
// members sorted), each group is assigned the next global communicator
// id, and every member registers the new handle in its virtualisation
// table — all deterministic, so restart replay re-mints identical ids.
func (c *Coordinator) completeCollective(commID int, seq uint64, completion vtime.Time) {
	f := c.colls[commID]
	if f == nil || f.seq != seq {
		return // stale event from an abandoned timeline
	}
	if f.kind == netsim.CommSplit {
		byColor := make(map[int][]int, 4)
		colors := make([]int, 0, 4)
		for i, id := range f.ranks {
			color := f.colors[i]
			if _, ok := byColor[color]; !ok {
				colors = append(colors, color)
			}
			byColor[color] = append(byColor[color], id)
		}
		sort.Ints(colors)
		for _, color := range colors {
			members := byColor[color]
			sort.Ints(members)
			id := len(c.comms)
			c.comms = append(c.comms, comm{members: members})
			for _, m := range members {
				c.rankVisits++
				r := c.ranks[m]
				c.inCollComm[m] = -1
				r.FinishCommSplit(completion, id, rank.RealCommBase+virtid.Real(id))
				c.afterCollectiveExit(r)
			}
		}
	} else {
		for _, id := range f.ranks {
			c.rankVisits++
			r := c.ranks[id]
			c.inCollComm[id] = -1
			r.FinishCollective(completion)
			c.afterCollectiveExit(r)
		}
	}
	c.noteClock(completion)
	c.removeForming(f)
}

// afterCollectiveExit updates bookkeeping for one rank leaving a
// collective: done accounting (which may lower other forming
// collectives' participation bars) or the next ready event.
func (c *Coordinator) afterCollectiveExit(r *rank.Rank) {
	if r.State() == rank.Done {
		c.noteDone()
	} else {
		c.scheduleReady(r)
	}
}

// noteDone records a rank's script ending and re-checks every forming
// collective: a finished rank lowers its communicators' participation
// bars, possibly making their completions schedulable. collList order
// keeps the re-check — and thus queue push order — deterministic.
func (c *Coordinator) noteDone() {
	c.doneCount++
	for _, f := range c.collList {
		c.maybeScheduleCollectiveDone(f)
	}
}

// afterRankProgress updates bookkeeping after a rank moved: the
// high-water clock, the done count, and — because a rank finishing its
// script lowers collective participation bars — possible collective
// completions.
func (c *Coordinator) afterRankProgress(r *rank.Rank) {
	c.noteClock(r.Clock().Now())
	if r.State() == rank.Done {
		c.noteDone()
	} else {
		c.scheduleReady(r)
	}
}

// dispatch executes one popped event. It returns failed=true when the
// injected failure fired.
func (c *Coordinator) dispatch(ev event) (failed bool) {
	switch ev.kind {
	case evRankReady:
		r := c.ranks[ev.rank]
		if r.State() != rank.Running {
			return false // stale: the timeline this event belonged to is gone
		}
		if c.draining && c.shouldHold(r) {
			// The rank reached its safe point for the in-progress drain:
			// it is held (no ready event) until the checkpoint commits or
			// the plan turns out to need it.
			c.held[r.ID()] = true
			return false
		}
		c.rankVisits++
		tr := r.Execute(c.net)
		switch tr.Kind {
		case rank.Advanced:
			c.afterRankProgress(r)
		case rank.BlockedOnRecv:
			// Zero scheduler work until a delivery event wakes it — but a
			// rank the drain plan needs must not starve behind a held
			// sender, so its blocked peer becomes needed (and released).
			if c.draining && c.plan.needed[r.ID()] > 0 {
				if peer, ok := r.BlockedOn(); ok && c.plan.needed[peer] == 0 {
					c.markNeeded(peer)
				}
			}
		case rank.JoinedCollective:
			c.noteClock(r.Clock().Now())
			c.joinCollective(r, tr)
		}
	case evDelivery:
		m := ev.msg
		r := c.ranks[m.Dst]
		if peer, ok := r.BlockedOn(); ok && peer == m.Src {
			c.rankVisits++
			if r.Wake(c.net, m.Arrive) {
				c.afterRankProgress(r)
			}
		}
		// Otherwise the receiver is not waiting for this message: it will
		// consume it from the network (the message has arrived by now, so
		// the arrival gate passes) or its drained inbox when its own ready
		// event reaches the receive, so the event is a no-op.
	case evCollectiveDone:
		c.completeCollective(ev.comm, ev.seq, ev.completion)
	case evTrigger:
		c.armTrigger(ev.trigger)
	case evFail:
		// Faults are one-shot: ordinal-anchored crashes were marked
		// consumed when scheduled; a virtual-time crash is consumed here,
		// so the restarted timeline replays through its firing point
		// without dying again.
		c.faultFired[ev.trigger] = true
		return true
	case evDrainDone:
		c.finishDrain(ev.trigger, ev.rank)
	}
	return false
}

// Run drives the event loop until the job completes or the configured
// failure injection fires. It may be called again after Restart.
//
// Each iteration first services checkpoint state (pending requests at a
// safe point, drain-plan construction otherwise) — always serially.
// Then, when the job is in a parallel-eligible phase (workers
// configured, no pending or draining checkpoint, no armed or unfired
// trigger), it tries to run one conservative window in which every
// island lane is drained concurrently up to the lookahead horizon; when
// the window cannot make progress (the next event is on the global
// lane) or the phase is not eligible, it falls back to popping a single
// event in the exact merged (time, seq) order — byte-identical to the
// single-queue scheduler.
func (c *Coordinator) Run() (Outcome, error) {
	for {
		for len(c.pending) > 0 && c.atSafePoint() {
			crashed, err := c.checkpoint()
			if err != nil {
				return Failed, err
			}
			if crashed {
				// A torn-write fault: the job died mid-image-write. The
				// partial link is committed (it is on the filesystem) but
				// restart verification will reject it.
				return Failed, nil
			}
		}
		if len(c.pending) > 0 && !c.draining {
			// Checkpoint intent with collectives in flight: build the
			// dependency-ordered drain plan (a cycle here is the
			// application's own deadlock, diagnosed rather than hung).
			if err := c.beginDrain(); err != nil {
				return Failed, err
			}
		}
		if c.allDone() {
			if got := c.net.InFlight(); got != 0 {
				return Failed, fmt.Errorf("coordinator: job done with %d unreceived messages", got)
			}
			c.sweepStaleDeliveries()
			return Completed, nil
		}
		if c.parallelEligible() && c.runWindow() {
			continue
		}
		ev, ok := c.pop()
		if !ok {
			// Before reporting the generic stall, check whether the
			// in-flight collectives explain it: a dependency cycle between
			// them is the classic mis-ordered-collectives deadlock, and the
			// diagnostic can name the ranks involved.
			if c.collectiveInProgress() {
				if _, err := topoOrder(c.buildDrainGraph()); err != nil {
					return Failed, fmt.Errorf("coordinator: deadlock after %d events: %w", c.events, err)
				}
			}
			return Failed, fmt.Errorf(
				"coordinator: deadlock after %d events — %d ranks not done, %d in collective, %d messages in flight, no event can wake them",
				c.events, c.nonDone(), c.inCollective(), c.net.InFlight())
		}
		if c.dispatch(ev) {
			return Failed, nil
		}
		c.checkArmedTriggers()
	}
}

// sweepStaleDeliveries pops the island-lane events still queued when
// the last rank finishes. They are all delivery events whose message
// was already consumed — the receiver reached its receive at or after
// the arrival time and took the message off the network queue before
// the wake event's turn came — and dispatching them would be a no-op:
// every rank is done, so there is no blocked receiver to wake. They are
// popped and counted anyway so that the events counter equals the total
// number of island events ever pushed in this timeline. A serial run
// and a parallel window reach the completion point having popped
// different subsets of these no-ops (a window drains every lane event
// below its horizon; the single-event loop stops at the completing
// event), and sweeping the remainder is what makes the reported event
// count identical for any island count, worker count and window
// schedule. Unfired triggers on the global lane are left alone — they
// are not part of any timeline's event flow.
func (c *Coordinator) sweepStaleDeliveries() {
	for lane := 0; lane < c.islands; lane++ {
		q := c.queues.Lane(lane)
		for {
			_, ev, ok := q.Pop()
			if !ok {
				break
			}
			if ev.kind != evDelivery {
				panic(fmt.Sprintf("coordinator: event kind %d queued on island lane %d after completion", ev.kind, lane))
			}
			c.events++
		}
	}
}

// pop removes the globally earliest event across all lanes — the exact
// order the old single-queue scheduler popped in.
func (c *Coordinator) pop() (event, bool) {
	_, _, ev, ok := c.queues.PopMin()
	if ok {
		c.events++
	}
	return ev, ok
}

// drain runs phase 1's message drain: every in-flight message is received
// into its destination rank's buffer, with probe and copy costs charged
// to the checkpoint-overhead accounts, until the per-pair counters agree
// the network is quiescent.
func (c *Coordinator) drain(rec *CheckpointRecord) error {
	for rounds := 0; c.net.InFlight() > 0; rounds++ {
		if rounds > c.cfg.Ranks+1 {
			return fmt.Errorf("coordinator: drain did not converge, %d messages still in flight", c.net.InFlight())
		}
		for _, r := range c.ranks {
			// One counter-comparison probe per peer that has ever sent
			// to this rank.
			r.ChargeCkptOverhead(vtime.Duration(c.net.PeersTo(r.ID())) * r.Kernel().DrainProbeCost())
			for _, m := range c.net.DrainTo(r.ID()) {
				r.BufferDrained(m)
				r.ChargeCkptOverhead(r.Kernel().DrainBufferCost(m.Bytes))
				rec.DrainedMsgs++
				rec.DrainedBytes += m.Bytes
			}
		}
	}
	return nil
}

// wantIncremental decides this checkpoint's capture mode: incremental
// only when configured, when a committed chain exists to delta against,
// and when the FullImageEvery cadence has not come due (each full image
// starts a new chain, bounding how many links a restart must read).
func (c *Coordinator) wantIncremental() bool {
	if !c.cfg.Incremental || len(c.gens) == 0 {
		return false
	}
	if c.cfg.FullImageEvery > 0 && len(c.gens[len(c.gens)-1].links) >= c.cfg.FullImageEvery {
		return false
	}
	return true
}

// captureStage captures one rank's image in the requested mode, charges
// the capture-side kernel costs (page-table scan over the whole upper
// half, one content hash per dirty page — only the scan scales with
// address-space size) and stamps the chain bookkeeping.
func (c *Coordinator) captureStage(r *rank.Rank, incremental bool, seq int) rank.Image {
	img := r.CaptureImage(incremental)
	img.Seq = seq
	if !img.Full {
		img.Base = seq - 1
		k := r.Kernel()
		r.ChargeCkptOverhead(vtime.Duration(img.Delta.ScannedPages)*k.PageScanCost() +
			vtime.Duration(img.Delta.DirtyPages)*k.PageHashCost())
	}
	return img
}

// accountStage folds one image's size accounting into the record.
// ImageBytes counts what actually reached the filesystem, so a torn image
// contributes only its partial written size.
func (c *Coordinator) accountStage(img rank.Image, rec *CheckpointRecord) {
	rec.ImageBytes += img.WrittenBytes
	rec.StoredBytes += img.StoredBytes
	rec.FullBytes += img.FullBytes()
	if img.Full {
		rec.FullImages++
		rec.DirtyBytes += img.Bytes()
		return
	}
	rec.DeltaImages++
	rec.DirtyBytes += img.Delta.DirtyBytes
	rec.DedupBytes += img.Delta.DedupBytes
}

// compressStage runs the storage config's per-page compressor over one
// rank's delta payload, charging the kernel CPU cost per input byte and
// recording the stored (post-compression) size on the image. Full images
// and torn (stage-fault) images pass through uncompressed: full snapshots
// are the chain's integrity anchor, and a torn write was aborted mid-copy.
func (c *Coordinator) compressStage(r *rank.Rank, img *rank.Image, rec *CheckpointRecord) {
	sc := &c.cfg.Storage
	if !sc.Compression || img.Full || !img.Complete {
		return
	}
	stored, raw := sc.CompressDelta(&img.Delta)
	cost := r.Kernel().CompressCost(raw, sc.CompressCost)
	r.ChargeCkptOverhead(cost)
	img.StoredBytes = img.WrittenBytes - raw + stored
	rec.CompressSavedBytes += raw - stored
	rec.CompressTime += cost
}

// writeStage charges one rank's commit-time image write, per byte
// actually carried, so incremental checkpoints pay for dirty pages only
// and a torn write pays only up to the tear.
//
// In the storage pipeline the write is either a direct transfer on the
// contended PFS (stragglers emerge from queueing behind the other ranks'
// writes) or a staging copy into the rank's node burst buffer at local
// bandwidth, with payload beyond the buffer's free capacity written
// through synchronously to the contended PFS. Staged bytes become a
// drain request, queued on the PFS once the staging copy finishes.
func (c *Coordinator) writeStage(r *rank.Rank, img *rank.Image, rec *CheckpointRecord) {
	sc := &c.cfg.Storage
	start := rec.SafeAt
	var writeTime vtime.Duration
	if !sc.Staging {
		done, wait := c.pfs.Write(start, img.StoredBytes)
		rec.PFSWait += wait
		writeTime = done.Sub(start)
	} else {
		var free uint64
		if sc.BBCapacity > c.bbUsed[r.ID()] {
			free = sc.BBCapacity - c.bbUsed[r.ID()]
		}
		staged := img.StoredBytes
		if staged > free {
			staged = free
		}
		spill := img.StoredBytes - staged
		writeTime = ioTime(staged, sc.BBBandwidth)
		if spill > 0 {
			done, wait := c.pfs.Write(start.Add(writeTime), spill)
			rec.PFSWait += wait
			rec.SpilledBytes += spill
			writeTime = done.Sub(start)
		}
		c.bbUsed[r.ID()] += staged
		rec.StagedBytes += staged
		if staged > 0 {
			c.drainReqs = append(c.drainReqs, drainReq{rank: r.ID(), bytes: staged, arrive: start.Add(writeTime)})
		}
	}
	r.ChargeCkptOverhead(writeTime)
	if writeTime > rec.MaxWriteTime {
		rec.MaxWriteTime = writeTime
	}
}

// scheduleDrains installs the just-committed link's durability state: a
// direct write is durable at commit; a staged link queues one
// PFS drain per rank (rank order, so the FIFO contention is
// deterministic) and schedules each completion as a global-lane event.
// The link becomes durable only when its last drain lands — until then
// it is a buffer-only copy a restart must skip.
func (c *Coordinator) scheduleDrains(rec *CheckpointRecord) {
	g := c.gens[len(c.gens)-1]
	link := &g.links[len(g.links)-1]
	sc := &c.cfg.Storage
	if !sc.Staging || len(c.drainReqs) == 0 {
		link.durable = true
		rec.DurableAt = rec.SafeAt.Add(rec.MaxWriteTime)
		return
	}
	link.staged = make([]uint64, len(c.ranks))
	for _, dr := range c.drainReqs {
		done, wait := c.pfs.Write(dr.arrive, dr.bytes)
		rec.PFSWait += wait
		link.staged[dr.rank] = dr.bytes
		link.pendingDrains++
		if done > rec.DurableAt {
			rec.DurableAt = done
		}
		c.queues.Push(c.globalLane(), done, event{kind: evDrainDone, rank: dr.rank, trigger: rec.Seq})
	}
	c.drainReqs = c.drainReqs[:0]
}

// finishDrain completes one rank's asynchronous drain for checkpoint
// seq: the burst-buffer occupancy is freed and, when this was the last
// outstanding drain, the link becomes durable. A link already retired
// from the retained set freed its occupancy when it was dropped, so a
// stale completion is a no-op.
func (c *Coordinator) finishDrain(seq, rankID int) {
	link := c.findLink(seq)
	if link == nil || link.staged == nil {
		return
	}
	c.bbUsed[rankID] -= link.staged[rankID]
	link.staged[rankID] = 0
	link.pendingDrains--
	if link.pendingDrains == 0 {
		link.staged = nil
		link.durable = true
	}
}

// findLink locates a retained chain link by checkpoint sequence number,
// newest first (drain completions almost always target the newest link).
func (c *Coordinator) findLink(seq int) *chainLink {
	for gi := len(c.gens) - 1; gi >= 0; gi-- {
		links := c.gens[gi].links
		for li := len(links) - 1; li >= 0; li-- {
			if links[li].seq == seq {
				return &links[li]
			}
		}
	}
	return nil
}

// releaseStaged frees the burst-buffer occupancy of every link in a
// generation being retired from the retained set: the simulated
// filesystem deletes the generation, so its staged copies stop holding
// buffer space. Any still-queued drain-done events for these links find
// them gone and no-op.
func (c *Coordinator) releaseStaged(g *generation) {
	for li := range g.links {
		link := &g.links[li]
		if link.staged == nil {
			continue
		}
		for r, b := range link.staged {
			c.bbUsed[r] -= b
		}
		link.staged = nil
		link.pendingDrains = 0
	}
}

// commitStage installs the captured link as the newest committed state:
// a full link starts a fresh generation (trimming the retained set to
// Config.RetainGenerations older ones), an incremental link extends the
// newest generation's chain. A link must be uniformly full or uniformly
// delta — ranks are constructed, checkpointed and restored together, so a
// mix means the coordinator's mode decision and the ranks' fallback logic
// disagree.
func (c *Coordinator) commitStage(images []rank.Image, rec *CheckpointRecord) {
	for _, img := range images[1:] {
		if img.Full != images[0].Full {
			panic(fmt.Sprintf("coordinator: checkpoint #%d mixes full and delta images", rec.Seq))
		}
	}
	link := chainLink{seq: rec.Seq, images: images, counters: c.net.CountersSnapshot()}
	if images[0].Full || len(c.gens) == 0 {
		c.gens = append(c.gens, &generation{links: []chainLink{link}})
		keep := c.cfg.RetainGenerations + 1
		if keep < 1 {
			keep = 1
		}
		if drop := len(c.gens) - keep; drop > 0 {
			for _, old := range c.gens[:drop] {
				c.releaseStaged(old)
			}
			c.gens = append(c.gens[:0], c.gens[drop:]...)
		}
		return
	}
	g := c.gens[len(c.gens)-1]
	g.links = append(g.links, link)
}

// checkpoint services the oldest pending request with the two-phase
// protocol. The caller guarantees the job is at a safe point. Ranks left
// blocked in a receive whose message was drained into their inbox are
// woken by the message's still-queued delivery event. crashed reports
// that an image-write fault killed the job during the commit — the
// partial link is committed, and the caller must stop the run.
func (c *Coordinator) checkpoint() (crashed bool, err error) {
	req := c.pending[0]
	c.pending = c.pending[1:]
	rec := CheckpointRecord{
		Seq:           len(c.records) + 1,
		RequestedAt:   req.at,
		MidCollective: req.midCollective,
	}
	if c.draining {
		// The dependency-ordered collective drain just completed: record
		// its shape and release the ranks held at their safe points once
		// the images are committed.
		rec.DrainPlanned = c.plan.planned
		rec.OverlapWidth = c.plan.width
		rec.DrainEvents = c.events - c.drainStartEvents
		defer c.endDrain()
	}

	// Phase 1: deliver the intent signal, then drain the network.
	for _, r := range c.ranks {
		r.ChargeCkptOverhead(r.Kernel().CheckpointSignalCost())
	}
	if err := c.drain(&rec); err != nil {
		return false, err
	}
	if got := c.net.InFlight(); got != 0 {
		return false, fmt.Errorf("coordinator: %d messages in flight after drain", got)
	}
	rec.SafeAt = c.MaxClock()
	rec.DeferredFor = rec.SafeAt.Sub(rec.RequestedAt)

	// Phase 2: the commit pipeline — capture, stage-hop faults,
	// compression, dedup accounting, write — run rank by rank in rank
	// order, so no map order reaches the record. Capture runs first for
	// every rank so stage-hop image-write faults (torn or corrupted
	// links) can damage the captured payloads before compression,
	// accounting, write charging and digesting see them; for a clean
	// checkpoint the split loop is byte-identical to the fused one
	// (captures do not interact across ranks).
	incremental := c.wantIncremental()
	images := make([]rank.Image, len(c.ranks))
	for i, r := range c.ranks {
		images[i] = c.captureStage(r, incremental, rec.Seq)
	}
	crashed = c.applyImageFaults(images, &rec)
	for i, r := range c.ranks {
		c.compressStage(r, &images[i], &rec)
	}
	d := newDigest()
	c.drainReqs = c.drainReqs[:0]
	for i, r := range c.ranks {
		c.accountStage(images[i], &rec)
		c.writeStage(r, &images[i], &rec)
		digestImage(d, images[i])
	}
	rec.Fingerprint = d.sum()
	c.commitStage(images, &rec)
	// Drain-hop faults damage the committed link's durable copy after
	// the fingerprint digested the clean staged payload; the drains are
	// then queued on the contended PFS and their completions scheduled
	// as global-lane events.
	c.applyDrainFaults(&rec)
	c.scheduleDrains(&rec)
	c.records = append(c.records, rec)

	// Checkpoint-commit crashes are events like everything else: each
	// fires its delay of virtual time after the commit point. They live
	// on the global lane, so parallel windows never run past one —
	// exactly the events a serial run would have processed before the
	// failure are processed before it here.
	for i, f := range c.faults {
		if !c.faultFired[i] && f.Anchor == faultplan.AtCheckpointCommit && f.N == rec.Seq {
			c.faultFired[i] = true
			c.queues.Push(c.globalLane(), rec.SafeAt.Add(f.Delay), event{kind: evFail, trigger: i})
		}
	}
	return crashed, nil
}

// applyImageFaults fires the image-write faults anchored to this
// checkpoint: a torn-write truncates the target rank's image at a
// byte-accurate partial size and kills the job at the commit point
// (crashed=true), a page-corruption silently damages the payload — the
// capture-time hash memos go stale, which is exactly what restart
// verification later trips over. Full-image corruption deep-copies the
// touched regions first (snapshot payloads alias live sealed slices).
func (c *Coordinator) applyImageFaults(images []rank.Image, rec *CheckpointRecord) (crashed bool) {
	for i, f := range c.faults {
		if c.faultFired[i] || f.Anchor != faultplan.AtImageWrite || f.Hop != faultplan.HopStage || f.N != rec.Seq {
			continue
		}
		c.faultFired[i] = true
		img := &images[f.Rank]
		switch f.Kind {
		case faultplan.TornWrite:
			total := img.Bytes()
			written := total / 2
			if f.Pages > 0 {
				written = uint64(f.Pages) * memsim.PageSize
			}
			if written > total {
				written = total
			}
			img.Complete = false
			img.WrittenBytes = written
			img.StoredBytes = written
			rec.TornImages++
			crashed = true
		case faultplan.PageCorruption:
			if img.Full {
				rec.CorruptPages += memsim.CorruptSnapshot(&img.Mem, f.Pages)
			} else {
				rec.CorruptPages += memsim.CorruptDelta(&img.Delta, f.Pages)
			}
		}
	}
	return crashed
}

// applyDrainFaults fires the image-write faults qualified to the
// buffer→PFS drain hop for the just-committed checkpoint. The damage
// lands on the committed link's images — the durable copy — after the
// commit fingerprinted the clean staged payload: the job does not crash
// (the drain is asynchronous; nothing observes the damage at commit
// time), and a torn or corrupted durable copy surfaces only when a
// later restart's verification walk rehashes the link.
func (c *Coordinator) applyDrainFaults(rec *CheckpointRecord) {
	g := c.gens[len(c.gens)-1]
	link := &g.links[len(g.links)-1]
	for i, f := range c.faults {
		if c.faultFired[i] || f.Anchor != faultplan.AtImageWrite || f.Hop != faultplan.HopDrain || f.N != rec.Seq {
			continue
		}
		c.faultFired[i] = true
		img := &link.images[f.Rank]
		switch f.Kind {
		case faultplan.TornWrite:
			total := img.Bytes()
			written := total / 2
			if f.Pages > 0 {
				written = uint64(f.Pages) * memsim.PageSize
			}
			if written > total {
				written = total
			}
			img.Complete = false
			img.WrittenBytes = written
			img.StoredBytes = written
			rec.DrainTornImages++
		case faultplan.PageCorruption:
			if img.Full {
				rec.DrainCorruptPages += memsim.CorruptSnapshot(&img.Mem, f.Pages)
			} else {
				rec.DrainCorruptPages += memsim.CorruptDelta(&img.Delta, f.Pages)
			}
		}
	}
}

// ErrRestartFault and ErrNoVerifiableGeneration are the named failures of
// the restart path. ErrRestartFault marks a restart attempt killed by an
// injected restart fault after its restore point was chosen — the link
// being read is destroyed, and the caller retries to fall back past it.
// ErrNoVerifiableGeneration means the verification walk rejected every
// retained link (torn, corrupt or poisoned): nothing on the simulated
// filesystem can be trusted, so the job is unrecoverable.
var (
	ErrRestartFault           = errors.New("coordinator: injected restart fault")
	ErrNoVerifiableGeneration = errors.New("coordinator: no verifiable checkpoint generation")
)

// Restart rebuilds the job from the newest verifiable committed
// checkpoint. The retained generations are walked newest-first; within
// each, the usable chain is the longest prefix of links every one of
// whose per-rank images verifies — torn links (partial writes) are
// rejected outright, corrupt ones by rehashing every carried page or
// region with the page digests recorded at capture (the verify cost is
// charged to the ranks' checkpoint-overhead clocks). A generation whose
// full link fails contributes nothing and the walk falls back a whole
// generation; when every retained link is rejected, Restart returns
// ErrNoVerifiableGeneration.
//
// From the chosen link, every rank discards its lower half, bootstraps a
// fresh one, replays the saved upper-half region map and resumes its
// clock, program counter and drained-message buffer; the network counters
// are restored and its queues cleared (the image was taken on a quiescent
// network). An incremental link is materialised first — the base full
// image overlaid with every verified delta in commit order, reading each
// link off the parallel filesystem (the read time restart is charged for,
// which is why FullImageEvery bounds the chain). The event queue is
// cleared — ready, delivery, collective and failure events all referenced
// the abandoned timeline — and reseeded from the restored state: one
// ready event per unfinished rank plus the unfired triggers and unfired
// virtual-time faults.
func (c *Coordinator) Restart() error {
	if len(c.gens) == 0 {
		return fmt.Errorf("coordinator: no committed checkpoint to restart from")
	}
	c.restartAttempts++
	newest := c.newestSeq()
	gi, prefix := -1, 0
	for g := len(c.gens) - 1; g >= 0 && prefix == 0; g-- {
		prefix = c.verifyPrefix(c.gens[g])
		gi = g
	}
	if prefix == 0 {
		return fmt.Errorf("coordinator: %d generations retained, newest committed #%d: %w",
			len(c.gens), newest, ErrNoVerifiableGeneration)
	}
	g := c.gens[gi]
	link := &g.links[prefix-1]
	for i, f := range c.faults {
		if !c.faultFired[i] && f.Anchor == faultplan.AtRestart && f.N == c.restartAttempts {
			// The restart process itself crashes while reading the chosen
			// link, destroying it: poison the seq so the retry's walk falls
			// back past it. Verification work already done stays charged
			// and is folded into the record of the attempt that succeeds.
			c.faultFired[i] = true
			if c.poisoned == nil {
				c.poisoned = make(map[int]bool)
			}
			c.poisoned[link.seq] = true
			return fmt.Errorf("coordinator: restart from checkpoint #%d crashed mid-restore: %w", link.seq, ErrRestartFault)
		}
	}
	preClock := c.maxClock
	for i, r := range c.ranks {
		img, readBytes := g.materializeLink(prefix-1, i)
		readTime := ioTime(readBytes, c.cfg.CkptReadBandwidth)
		r.Restore(img)
		r.ChargeCkptOverhead(r.Kernel().RestartReinitCost() + readTime)
	}
	c.net.Restore(link.counters)
	// In-flight collectives and any drain in progress belonged to the
	// abandoned timeline: clear the rendezvous state and rebuild the
	// communicator registry from the restored images (sub-communicators
	// minted after the checkpoint die with the timeline; replayed splits
	// will re-mint them with identical ids).
	for len(c.collList) > 0 {
		c.removeForming(c.collList[0])
	}
	for i := range c.inCollComm {
		c.inCollComm[i] = -1
	}
	c.abandonDrain()
	c.rebuildComms()
	// Checkpoint requests fired in the abandoned timeline die with it: a
	// request references scheduler state (clocks, collective progress)
	// that no longer exists after the rollback. But a request whose
	// checkpoint never committed — the job crashed mid-drain or
	// mid-write — is still owed: its trigger is un-consumed so the
	// checkpoint (and its drain plan) is rebuilt in the new timeline.
	// Triggers whose checkpoints committed stay consumed.
	for _, req := range c.pending {
		c.fired[req.trigger] = false
		c.unfired++
	}
	c.pending = nil
	c.armed = c.armed[:0]
	c.queues.Clear()
	// The crash also took the storage pipeline's transient state with
	// it: in-flight PFS transfers die with their timeline (the queue
	// clear above already dropped the drain-done events) and the node
	// burst buffers come back empty — which is exactly why undrained
	// links stay non-durable forever.
	c.pfs.Reset()
	for i := range c.bbUsed {
		c.bbUsed[i] = 0
	}
	c.drainReqs = c.drainReqs[:0]
	for i, t := range c.triggers {
		if !c.fired[i] {
			c.queues.Push(c.globalLane(), t.At, event{kind: evTrigger, trigger: i})
		}
	}
	for i, f := range c.faults {
		if !c.faultFired[i] && f.Anchor == faultplan.AtVirtualTime {
			c.queues.Push(c.globalLane(), f.Time, event{kind: evFail, trigger: i})
		}
	}
	c.doneCount = 0
	for _, r := range c.ranks {
		if r.State() == rank.Done {
			c.doneCount++
		} else {
			c.scheduleReady(r)
		}
	}
	c.maxClock = c.MaxClock()
	// Everything newer than the restore point failed verification or was
	// poisoned — drop it so the next committed delta chains onto what was
	// actually restored.
	g.links = g.links[:prefix]
	c.gens = c.gens[:gi+1]
	rec := RestartRecord{
		FromSeq:         link.seq,
		ResumeClock:     c.maxClock,
		FallbackDepth:   newest - link.seq,
		TornLinks:       c.pendTorn,
		CorruptLinks:    c.pendCorrupt,
		VerifiedPages:   c.pendVerifyPages,
		VerifyTime:      c.pendVerifyTime,
		BufferOnlyLinks: c.pendBufferOnly,
	}
	if preClock > c.maxClock {
		rec.LostWork = preClock.Sub(c.maxClock)
	}
	c.pendTorn, c.pendCorrupt, c.pendVerifyPages, c.pendVerifyTime, c.pendBufferOnly = 0, 0, 0, 0, 0
	c.restarts = append(c.restarts, rec)
	return nil
}

// newestSeq returns the newest committed checkpoint's sequence number.
// The caller guarantees at least one committed generation.
func (c *Coordinator) newestSeq() int {
	g := c.gens[len(c.gens)-1]
	return g.links[len(g.links)-1].seq
}

// verifyPrefix returns the length of the longest usable prefix of the
// generation's links, stopping at the first poisoned, torn or corrupt
// link. Every page of every image checked is rehashed at the kernel's
// per-page hash rate, charged to the owning rank's checkpoint-overhead
// clock and accumulated for the restart record; iteration is links
// ascending, ranks ascending, so the charges are deterministic.
func (c *Coordinator) verifyPrefix(g *generation) int {
	n := 0
	for li := range g.links {
		link := &g.links[li]
		if c.poisoned[link.seq] {
			break
		}
		if !link.durable {
			// The link's images were staged in node burst buffers but
			// never finished draining to the PFS before the crash: the
			// only copies died with the node. Rejected on metadata alone
			// — there is nothing on the filesystem to rehash.
			c.pendBufferOnly++
			break
		}
		ok := true
		for i, r := range c.ranks {
			pages, err := rank.VerifyImage(link.images[i])
			cost := vtime.Duration(pages) * r.Kernel().PageHashCost()
			r.ChargeCkptOverhead(cost)
			c.pendVerifyPages += pages
			c.pendVerifyTime += cost
			if err != nil {
				if !link.images[i].Complete {
					c.pendTorn++
				} else {
					c.pendCorrupt++
				}
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		n++
	}
	return n
}

// rebuildComms reconstructs the communicator registry from the restored
// ranks' slot tables. Iterating ranks in id order keeps every member
// list sorted, matching how comm-split completions build them, and the
// next split after restart mints max-id+1 — exactly what the replayed
// timeline's split would have minted.
func (c *Coordinator) rebuildComms() {
	maxID := 0
	for _, r := range c.ranks {
		for slot := 1; slot < r.CommCount(); slot++ {
			if id := r.CommID(slot); id > maxID {
				maxID = id
			}
		}
	}
	comms := make([]comm, maxID+1)
	comms[0] = c.comms[0] // world membership never changes
	for _, r := range c.ranks {
		for slot := 1; slot < r.CommCount(); slot++ {
			id := r.CommID(slot)
			comms[id].members = append(comms[id].members, r.ID())
		}
	}
	c.comms = comms
}

// ioTime converts an image payload and a filesystem bandwidth into a
// virtual duration, treating non-positive bandwidth as free I/O.
func ioTime(bytes uint64, bandwidth float64) vtime.Duration {
	if bandwidth <= 0 {
		return 0
	}
	return vtime.DurationOf(float64(bytes) / bandwidth)
}

// bwString renders a storage bandwidth for the report header:
// "16.0GB/s", or "free" for the non-positive free-I/O sentinel.
func bwString(bw float64) string {
	if bw <= 0 {
		return "free"
	}
	return fmt.Sprintf("%.1fGB/s", bw/1e9)
}

// Report renders a deterministic plain-text summary of the run as one
// string. It is a convenience wrapper over WriteReport for callers that
// want to retain or compare the whole report.
func (c *Coordinator) Report() string {
	var b strings.Builder
	c.WriteReport(&b)
	return b.String()
}

// WriteReport streams the deterministic plain-text summary of the run —
// per-rank virtual times and accounting, per-checkpoint protocol
// records, and the final fingerprint — into w, without ever building the
// whole report in memory. Two identical runs produce byte-identical
// report streams, whatever the writer: the fleet path feeds a hash (or
// discards the bytes entirely) and still observes the exact bytes a
// standalone run prints. Write errors are not reported, matching the
// best-effort semantics the string path always had.
func (c *Coordinator) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "manasim: %d ranks, kernel=%v, virtid=%v, seed=%d\n",
		c.cfg.Ranks, c.cfg.Personality, c.cfg.Virtid, c.cfg.Seed)
	fmt.Fprintf(w, "job: makespan=%v, events=%d, rank-visits=%d, messages sent=%d\n",
		c.MaxClock(), c.events, c.rankVisits, c.net.TotalSent())
	var splits uint64
	for _, r := range c.ranks {
		splits += r.Stats().CommSplits
	}
	fmt.Fprintf(w, "comms: %d (1 world + %d split), comm-splits executed=%d\n",
		len(c.comms), len(c.comms)-1, splits)
	sc := &c.cfg.Storage
	fmt.Fprintf(w, "storage: pfs-aggregate=%s", bwString(sc.PFSBandwidth))
	if sc.Staging {
		fmt.Fprintf(w, ", burst-buffer=%s cap=%d", bwString(sc.BBBandwidth), sc.BBCapacity)
	} else {
		fmt.Fprintf(w, ", staging=off")
	}
	if sc.Compression {
		fmt.Fprintf(w, ", compression=on cost=%gns/B\n", sc.CompressCost)
	} else {
		fmt.Fprintf(w, ", compression=off\n")
	}

	fmt.Fprintf(w, "\nranks:\n")
	fmt.Fprintf(w, "  %4s %16s %10s %6s %6s %6s %14s %14s\n",
		"rank", "vtime", "mpi-calls", "sent", "recvd", "coll", "mana-overhead", "ckpt-overhead")
	for _, r := range c.ranks {
		st := r.Stats()
		fmt.Fprintf(w, "  %4d %16v %10d %6d %6d %6d %14v %14v\n",
			r.ID(), r.Clock().Now(), st.MPICalls, st.MsgsSent, st.MsgsRecvd,
			st.Collectives, st.ManaOverhead, r.CkptOverhead())
	}

	fmt.Fprintf(w, "\ncheckpoints: %d committed (incremental=%v, full-every=%d)\n",
		len(c.records), c.cfg.Incremental, c.cfg.FullImageEvery)
	for _, rec := range c.records {
		fmt.Fprintf(w, "  #%d requested@%v mid-collective=%v deferred=%v safe@%v\n",
			rec.Seq, rec.RequestedAt, rec.MidCollective, rec.DeferredFor, rec.SafeAt)
		fmt.Fprintf(w, "     drained %d msgs (%d bytes), wrote %d bytes (%dF+%dD), slowest write %v, fp=%016x\n",
			rec.DrainedMsgs, rec.DrainedBytes, rec.ImageBytes, rec.FullImages, rec.DeltaImages,
			rec.MaxWriteTime, rec.Fingerprint)
		fmt.Fprintf(w, "     full %d bytes, dirty %d bytes, dedup %.3f\n",
			rec.FullBytes, rec.DirtyBytes, rec.DedupRatio())
		fmt.Fprintf(w, "     coll-drain: planned=%d overlap-width=%d drain-events=%d\n",
			rec.DrainPlanned, rec.OverlapWidth, rec.DrainEvents)
		fmt.Fprintf(w, "     io: stored %d bytes", rec.StoredBytes)
		if sc.Compression {
			fmt.Fprintf(w, " (saved %d, cpu %v)", rec.CompressSavedBytes, rec.CompressTime)
		}
		if sc.Staging {
			fmt.Fprintf(w, ", staged %d spilled %d", rec.StagedBytes, rec.SpilledBytes)
		}
		fmt.Fprintf(w, ", pfs-wait %v, durable@%v\n", rec.PFSWait, rec.DurableAt)
		if rec.TornImages > 0 || rec.CorruptPages > 0 || rec.DrainTornImages > 0 || rec.DrainCorruptPages > 0 {
			fmt.Fprintf(w, "     faults: torn-images=%d corrupt-pages=%d", rec.TornImages, rec.CorruptPages)
			if rec.DrainTornImages > 0 || rec.DrainCorruptPages > 0 {
				fmt.Fprintf(w, " drain-torn=%d drain-corrupt=%d", rec.DrainTornImages, rec.DrainCorruptPages)
			}
			fmt.Fprintln(w)
		}
	}

	if len(c.restarts) > 0 {
		fmt.Fprintf(w, "\nrestarts: %d\n", len(c.restarts))
		for _, rs := range c.restarts {
			fmt.Fprintf(w, "  restored from checkpoint #%d, resumed at vtime %v\n", rs.FromSeq, rs.ResumeClock)
			fmt.Fprintf(w, "     fallback-depth=%d lost-work=%v verified %d pages in %v (torn-links=%d corrupt-links=%d)",
				rs.FallbackDepth, rs.LostWork, rs.VerifiedPages, rs.VerifyTime, rs.TornLinks, rs.CorruptLinks)
			if rs.BufferOnlyLinks > 0 {
				fmt.Fprintf(w, " buffer-only-links=%d", rs.BufferOnlyLinks)
			}
			fmt.Fprintln(w)
		}
	}

	lk := c.LookupStats()
	fmt.Fprintf(w, "\nvirtid: impl=%v, per-lookup=%v, per-write=%v\n",
		c.cfg.Virtid, c.cfg.Virtid.LookupCost(), c.cfg.Virtid.WriteCost())
	fmt.Fprintf(w, "  lookups: total=%d (comm=%d datatype=%d request=%d), modelled time=%v\n",
		lk.HandleLookups, lk.CommLookups, lk.DatatypeLookups, lk.RequestLookups, lk.LookupTime)
	fmt.Fprintf(w, "  writes: total=%d, modelled time=%v\n", lk.HandleWrites, lk.WriteTime)

	mem := c.memorySummary()
	fmt.Fprintf(w, "\nmemory (rank 0): upper=%d bytes, lower=%d bytes\n", mem[0], mem[1])
	fmt.Fprintf(w, "final fingerprint: %016x\n", c.FinalFingerprint())
}

// LookupStats aggregates the per-rank handle-virtualisation accounting
// in rank order — plain counter sums, so table iteration order never
// influences the (byte-identical) report.
func (c *Coordinator) LookupStats() rank.Stats {
	var total rank.Stats
	for _, r := range c.ranks {
		st := r.Stats()
		total.HandleLookups += st.HandleLookups
		total.CommLookups += st.CommLookups
		total.DatatypeLookups += st.DatatypeLookups
		total.RequestLookups += st.RequestLookups
		total.HandleWrites += st.HandleWrites
		total.LookupTime += st.LookupTime
		total.WriteTime += st.WriteTime
	}
	return total
}

func (c *Coordinator) memorySummary() [2]uint64 {
	r := c.ranks[0]
	return [2]uint64{
		r.Mem().BytesOf(memsim.UpperHalf),
		r.Mem().BytesOf(memsim.LowerHalf),
	}
}

// SortedPairs returns the network's counter pairs in deterministic order,
// for report and test consumption.
func SortedPairs(counters netsim.Counters) []netsim.Pair {
	pairs := make([]netsim.Pair, 0, len(counters))
	for p := range counters {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	return pairs
}
