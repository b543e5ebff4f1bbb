package slug

import "repro/internal/wal"

// Option tunes one Summarize call. Options not applicable to the
// chosen algorithm are ignored, so a single option set can drive every
// registered algorithm (e.g. from the experiment harness).
type Option func(*buildConfig)

// buildConfig is the resolved option set handed to algorithm adapters.
// Zero values mean "algorithm default".
type buildConfig struct {
	iterations  int // main-loop iterations T (slugger, sweg)
	heightBound int // hierarchy height bound Hb (slugger)
	seed        int64
	workers     int // merge-phase worker pool size (slugger)
	progress    func(Event)
	compaction  int    // updatable-artifact compaction threshold (NewUpdatable)
	algorithm   string // per-shard algorithm (SummarizeSharded)

	walDir    string // updatable-artifact WAL directory ("" = volatile)
	walPolicy wal.Policy
	walFS     wal.FS // fault-injection hook for tests (nil = the real one)
}

func resolve(opts []Option) buildConfig {
	var cfg buildConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithIterations sets the number of main-loop iterations T for the
// iterative algorithms (SLUGGER and SWeG; default 20, as in the paper).
// Other algorithms ignore it.
func WithIterations(t int) Option {
	return func(cfg *buildConfig) { cfg.iterations = t }
}

// WithHeightBound bounds the height of SLUGGER's hierarchy trees
// (0 = unbounded, the default). The baselines, whose trees never
// exceed height 1, ignore it.
func WithHeightBound(hb int) Option {
	return func(cfg *buildConfig) { cfg.heightBound = hb }
}

// WithSeed sets the seed driving all randomness; every algorithm is
// deterministic given a seed. The default seed is 0.
func WithSeed(seed int64) Option {
	return func(cfg *buildConfig) { cfg.seed = seed }
}

// WithWorkers sets the size of SLUGGER's merge-phase worker pool
// (default 1 = serial; any value produces byte-identical output). The
// serial baselines ignore it.
func WithWorkers(n int) Option {
	return func(cfg *buildConfig) { cfg.workers = n }
}

// WithCompactionThreshold sets, for updatable artifacts (NewUpdatable),
// the number of overlay corrections at which a background re-summarize
// is triggered and the fresh base swapped in (0, the default, disables
// auto-compaction: the overlay grows until Compact is called). A
// batch's cost does not grow with the overlay, only the reads of the
// vertices it has corrected do: each merges that vertex's corrections.
// Summarize calls ignore it.
func WithCompactionThreshold(n int) Option {
	return func(cfg *buildConfig) { cfg.compaction = n }
}

// WithAlgorithm selects, for sharded builds (SummarizeSharded), the
// registered algorithm run on every shard (default "slugger").
// Summarizer.Summarize calls ignore it — there the receiver is the
// algorithm.
func WithAlgorithm(name string) Option {
	return func(cfg *buildConfig) { cfg.algorithm = name }
}

// WithDurability gives an updatable artifact (NewUpdatable) a write-
// ahead log in dir: every acknowledged update batch is persisted before
// it becomes visible, compactions checkpoint the rebuilt base and
// retire replayed log segments, and reopening the same directory
// (NewUpdatable or OpenUpdatable) recovers the exact acknowledged
// state — see the Durability section of the package docs for the fsync
// policy tradeoffs. Summarize calls ignore it.
func WithDurability(dir string, policy SyncPolicy) Option {
	return func(cfg *buildConfig) {
		cfg.walDir = dir
		cfg.walPolicy = policy.p
	}
}

// withWALFS substitutes the filesystem under the write-ahead log, so
// tests can inject faults and crashes. Not part of the public API.
func withWALFS(fs wal.FS) Option {
	return func(cfg *buildConfig) { cfg.walFS = fs }
}

// WithProgress registers a callback receiving build progress Events.
// The callback runs synchronously on the building goroutine, so it may
// cancel the build's context to stop promptly; it must not block.
func WithProgress(fn func(Event)) Option {
	return func(cfg *buildConfig) { cfg.progress = fn }
}

// emit delivers an event if a progress callback is registered.
func (cfg *buildConfig) emit(ev Event) {
	if cfg.progress != nil {
		cfg.progress(ev)
	}
}
