package fleet

import (
	"context"
	"errors"

	"repro/internal/dse"
)

// RunSearch executes a successive-halving search across the fleet: every
// rung of the ladder is an ordinary fleet.Run of that rung's sweep spec —
// sharded over the workers, leased under TTL heartbeats, merged through a
// fidelity-scoped dse.Plan — and promotion between rungs happens on the
// coordinator. All rungs share cfg.Checkpoint, as in a local search:
// records are fidelity-tagged and each rung appends its records in unit
// order after the lines the file already holds, so the file ends
// byte-identical to a local search of the spec, and a coordinator killed at
// any rung resumes from it with zero re-evaluation.
func RunSearch(ctx context.Context, spec dse.SearchSpec, cfg Config) (*dse.SearchResult, error) {
	if cfg.Checkpoint == "" {
		return nil, errors.New("fleet: checkpoint path required")
	}
	return dse.Search(ctx, spec, func(ctx context.Context, sw dse.SweepSpec) (*dse.ResultSet, error) {
		res, err := Run(ctx, sw, cfg)
		if err != nil {
			return nil, err
		}
		return res.set, nil
	})
}
