package serve

import (
	"context"
	"errors"

	"meetpoly"
	"meetpoly/internal/campaign"
	"meetpoly/internal/faultinject"
)

// ErrStopped reports that the result consumer stopped the run early
// (emit returned false) — typically a streaming client disconnecting.
// Whatever was checkpointed stays durable; a later run resumes from it.
var ErrStopped = errors.New("serve: shard run stopped by consumer")

// ShardConfig describes one run over a slice of a campaign's cell
// index range.
type ShardConfig struct {
	Engine *meetpoly.Engine
	Spec   meetpoly.SweepSpec

	// Ranges restricts the run to explicit absolute cell index
	// intervals, clamped to [0, total): the primitive behind lease
	// execution (a coordinator worker runs exactly its lease), client
	// resume (a reconnecting client requests exactly its gap set) and
	// ?ranges= (an operator splits a campaign across instances). Empty
	// means the whole campaign.
	Ranges []campaign.Interval

	// Dir is the run's checkpoint directory. Empty disables
	// checkpointing (the run is stateless and cannot resume).
	Dir string

	// FlushEvery bounds how many completed cells may sit in the
	// checkpoint's staging buffer before a durable flush; <= 0 means
	// DefaultFlushEvery. A crash loses at most this many cells of work.
	FlushEvery int

	// Faults threads the chaos harness through the run: checkpoint
	// write/fsync faults wrap the log files, and the kill-after-flush
	// trigger abandons the checkpoint (no final flush, no close — the
	// in-process kill -9) and returns faultinject.ErrKilled. Nil
	// injects nothing.
	Faults *faultinject.Injector

	// Metrics, when set, receives the run's execution and checkpoint
	// series: cells executed vs recovered, records staged, flush and
	// fsync latencies, poison events. Nil records nothing.
	Metrics *meetpoly.Metrics

	// Test hooks. onCellRun observes each freshly executed cell's index
	// (recovered cells never fire it — that is how resume tests prove no
	// completed cell re-executes). onFlush observes each periodic flush.
	onCellRun func(index int)
	onFlush   func(flushes int)
}

// DefaultFlushEvery is the checkpoint flush interval (in completed
// cells) when ShardConfig.FlushEvery is unset.
const DefaultFlushEvery = 32

// RunShard executes cfg.Ranges (the whole campaign when empty),
// streaming each cell result to emit (return false to stop early) and
// folding everything into the slice's aggregate report. With a
// checkpoint directory the run is resumable: results recovered from a
// previous run are replayed into the stream and fold without
// re-execution, only the sealed-range gaps run, and completed cells
// are flushed durably every FlushEvery cells. Canceled cells are
// folded and emitted but never checkpointed — a resumed run must
// re-execute them for real.
//
// The fold is the engine's own order-independent aggregator, so a
// whole-campaign run's report — interrupted and resumed any number of
// times — is byte-identical to an uninterrupted Engine.Sweep.
func RunShard(ctx context.Context, cfg ShardConfig, emit func(meetpoly.SweepCellResult) bool) (*meetpoly.SweepReport, error) {
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = DefaultFlushEvery
	}
	total, err := meetpoly.CountSweep(cfg.Spec)
	if err != nil {
		return nil, err
	}
	var want campaign.IndexSet
	if len(cfg.Ranges) == 0 {
		want.AddRange(0, total)
	}
	for _, r := range cfg.Ranges {
		want.AddRange(max(r.Lo, 0), min(r.Hi, total))
	}

	m := newShardMetrics(cfg.Metrics)
	var cp *Checkpoint
	if cfg.Dir != "" {
		cp, err = openCheckpoint(cfg.Dir, cfg.Faults, m)
		if err != nil {
			return nil, err
		}
		defer func() {
			if cp != nil {
				cp.Close()
			}
		}()
	}

	agg := campaign.NewAggregator(cfg.Spec, nil)

	// Replay what a previous run already completed. Recovered results
	// are exact (cells are pure functions of their seeds), and the
	// aggregator's duplicate guard makes a boundary cell arriving on
	// both the replay and re-execution paths harmless.
	done := &campaign.IndexSet{}
	if cp != nil {
		for _, cr := range cp.Recovered() {
			if !want.Contains(cr.Cell.Index) {
				continue // sealed under a different slicing; not ours now
			}
			if m != nil {
				m.recovered.Inc()
			}
			agg.Add(cr)
			if !emit(cr) {
				return nil, ErrStopped
			}
		}
		done = cp.Completed()
	}

	flushes := 0
	for _, iv := range want.Ranges() {
		for _, gap := range done.Gaps(iv.Lo, iv.Hi) {
			for cr, serr := range cfg.Engine.SweepStreamRange(ctx, cfg.Spec, gap.Lo, gap.Hi) {
				if serr != nil {
					return nil, serr
				}
				if cfg.onCellRun != nil {
					cfg.onCellRun(cr.Cell.Index)
				}
				if m != nil {
					m.cellsRun.Inc()
				}
				agg.Add(cr)
				if cp != nil && !cr.Outcome.Canceled {
					if err := cp.Record(cr); err != nil {
						return nil, err
					}
					if cp.Pending() >= cfg.FlushEvery {
						if err := cp.Flush(); err != nil {
							return nil, err
						}
						flushes++
						if cfg.onFlush != nil {
							cfg.onFlush(flushes)
						}
						if cfg.Faults.OnFlush() {
							cp.abandon()
							cp = nil // defer must not Close (and flush) after the "kill"
							return nil, faultinject.ErrKilled
						}
					}
				}
				if !emit(cr) {
					return nil, ErrStopped
				}
			}
		}
	}

	if cp != nil {
		err := cp.Close()
		cp = nil
		if err != nil {
			return nil, err
		}
	}
	return agg.Report(), nil
}
