// Command figures regenerates the paper's evaluation, one study at a
// time or all of them: Tables I–II (planner comparison under the three
// communication settings), the Figure 5 sweeps (reaching time and
// emergency frequency versus transmission period, message drop
// probability, and sensor uncertainty), the Figure 6 traces (information
// filter and passing-window estimation), the §V-C RMSE study, and the
// ablation table of DESIGN.md §6.
//
// Usage:
//
//	figures [-fig ID|all] [-n 400] [-seed 42] [-csv] [-nn | -models DIR]
//
// ID is a study of experiments.Studies: table1, table2, 5a–5f, 6a, 6b,
// rmse, ablation, stream, carfollow, platoon, burst or worstcase.  Beyond
// the paper, "stream" and "carfollow" run the multi-vehicle and
// car-following case studies, "burst" sweeps the mean loss-burst length
// of a Gilbert–Elliott channel, "worstcase" tabulates the adversarial
// disturbance settings (burst loss, jitter+reordering, stale replay,
// blackout, sensor bias drift) — the worst-case companion of Table I/II —
// and "platoon" tabulates the N-vehicle chained-link platoon: a
// chain-length sweep under delayed messaging plus the burst preset
// rotated over each individual V2V link.
//
// Without -nn or -models the analytic expert policies stand in for κ_n,
// which reproduces the same shapes in a fraction of the time.  The paper
// ran 80 000 episodes per setting; pass -n 80000 for full scale.  Stdout
// depends only on the flags; each campaign's wall time goes to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"safeplan/internal/experiments"
	"safeplan/internal/leftturn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		fig    = fs.String("fig", "all", "study id (table1, 5a, …; an unknown id lists them) or all")
		n      = fs.Int("n", 400, "episodes per design and cell")
		seed   = fs.Int64("seed", experiments.DefaultSeed, "base seed")
		csv    = fs.Bool("csv", false, "emit CSV instead of tables/ASCII charts")
		useNN  = fs.Bool("nn", false, "imitation-train NN planners as κ_n")
		models = fs.String("models", "", "load trained NN planners from this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("-n %d: need at least one episode", *n)
	}
	if *useNN && *models == "" {
		log.Print("training NN planners (use -models to reuse saved ones)…")
	}
	pl, err := experiments.ResolvePlanners(leftturn.DefaultConfig(), *models, *useNN, *seed)
	if err != nil {
		return err
	}

	studies := experiments.Studies(pl)
	if *fig != "all" {
		i := slices.IndexFunc(studies, func(s experiments.Study) bool { return s.ID == *fig })
		if i < 0 {
			ids := make([]string, len(studies))
			for j, s := range studies {
				ids[j] = s.ID
			}
			return fmt.Errorf("unknown figure %q (have: %s, all)", *fig, strings.Join(ids, ", "))
		}
		studies = studies[i : i+1]
	}
	// Studies that share a campaign (Fig. 5a/5b, …) run it once.
	ran := map[*experiments.Campaign][]experiments.Row{}
	for _, s := range studies {
		var rows []experiments.Row
		if c := s.Campaign; c != nil {
			if rows = ran[c]; rows == nil {
				start := time.Now()
				if rows, err = c.Run(*n, *seed); err != nil {
					return fmt.Errorf("%s: %w", s.ID, err)
				}
				log.Printf("%s: %d campaigns of %d episodes in %.1fs", s.ID, len(rows), *n, time.Since(start).Seconds())
				ran[c] = rows
			}
		}
		if err := s.Write(stdout, rows, *n, *seed, *csv); err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
	}
	return nil
}
