// Command train imitation-trains the two NN planners of the evaluation
// (κ_n,cons and κ_n,aggr) and writes them as JSON model files, which
// cmd/figures and cmd/simulate can load with -models.
//
// Usage:
//
//	train [-out models] [-samples 20000] [-epochs 40] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"safeplan/internal/carfollow"
	"safeplan/internal/experiments"
	"safeplan/internal/leftturn"
	"safeplan/internal/nn"
	"safeplan/internal/planner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	var (
		out     = flag.String("out", "models", "output directory for the model files")
		samples = flag.Int("samples", 20000, "imitation dataset size per planner")
		epochs  = flag.Int("epochs", 40, "training epochs")
		seed    = flag.Int64("seed", 1, "master seed (weights, rollouts, shuffling)")
	)
	flag.Parse()

	cfg := leftturn.DefaultConfig()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	train := func(teacher planner.Planner, label, file string, seed int64) {
		opts := planner.TrainOptions{Samples: *samples, Epochs: *epochs, Seed: seed}
		nnp, loss, err := planner.TrainNNPlanner(cfg, teacher, label, opts)
		if err != nil {
			log.Fatal(err)
		}
		path := *out + "/" + file
		if err := nnp.Save(path); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s  loss=%.4f  params=%d  → %s\n", label, loss, nnp.Net.NumParams(), path)
	}
	train(planner.ConservativeExpert(cfg), "nn-cons", experiments.ConsModelFile, *seed)
	train(planner.AggressiveExpert(cfg), "nn-aggr", experiments.AggrModelFile, *seed+1)

	// The car-following case study's planners, trained over the same budget.
	cf := carfollow.DefaultConfig()
	trainCF := func(teacher carfollow.Planner, label, file string, seed int64) {
		opts := carfollow.TrainOptions{Samples: *samples, Epochs: *epochs, Seed: seed}
		nnp, loss, err := carfollow.TrainNNPlanner(cf, teacher, label, opts)
		if err != nil {
			log.Fatal(err)
		}
		path := *out + "/" + file
		data, err := nnMarshal(nnp)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s  loss=%.4f  params=%d  → %s\n", label, loss, nnp.Net.NumParams(), path)
	}
	trainCF(carfollow.ConservativeExpert(cf), "cf-cons", "cf-cons.json", *seed+2)
	trainCF(carfollow.AggressiveExpert(cf), "cf-aggr", "cf-aggr.json", *seed+3)
}

// nnMarshal serializes a car-following NN planner's model.
func nnMarshal(p *carfollow.NNPlanner) ([]byte, error) {
	return nn.MarshalModel(p.Net, p.Norm)
}
