package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safeplan/internal/campaign"
	"safeplan/internal/dist"
)

var update = flag.Bool("update", false, "re-bless testdata/golden_workloads.txt")

// models is the trained-model directory the certify/* workloads read.
var models = filepath.Join("..", "..", "models")

// goldenEpisodes and goldenSeed size each workload's golden run.
const (
	goldenEpisodes = 8
	goldenSeed     = 1
)

// statsJSON runs spec's campaign of wl in counting mode and returns its
// statistics as the reports serialize them.
func statsJSON(t *testing.T, spec campaign.Spec, wl Workload) []byte {
	t.Helper()
	spec.Invariants, spec.CountViolations = wl.Invariants, true
	rep, err := campaign.Run(spec, wl.Episode)
	if err != nil {
		t.Fatalf("%s: %v", wl.Name, err)
	}
	raw, err := json.Marshal(rep.Stats)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGoldenWorkloads pins what every registered name means: one line
// per name, sorted, with its invariant checkers and the sha256 of the
// campaign.Stats JSON of a short counting-mode run.  A change to what a
// name builds — its configuration, agent or checkers — moves its line;
// rerun with -update only when that change is intended, since a name
// must mean one thing to every worker that resolves it.
func TestGoldenWorkloads(t *testing.T) {
	var out bytes.Buffer
	names := Names()
	for i, name := range names {
		if name != strings.ToLower(name) || strings.ContainsAny(name, " \t") {
			t.Errorf("%q: names are lowercase with no spaces", name)
		}
		if i > 0 && names[i-1] == name {
			t.Errorf("%q is registered twice", name)
		}
		wl, err := Lookup(name, models)
		if err != nil {
			t.Fatal(err)
		}
		invariants := make([]string, len(wl.Invariants))
		for k, inv := range wl.Invariants {
			invariants[k] = inv.Name()
		}
		sum := sha256.Sum256(statsJSON(t, campaign.Spec{Name: name, Episodes: goldenEpisodes, BaseSeed: goldenSeed, Workers: 2}, wl))
		fmt.Fprintf(&out, "%s %s %x\n", name, strings.Join(invariants, ","), sum)
	}
	path := filepath.Join("testdata", "golden_workloads.txt")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("registered workloads differ from %s (rerun with -update after an intended change)\ngot:\n%s", path, out.Bytes())
	}
}

// TestLookupUnknown keeps an unknown name an error.
func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("none/ultimate", models); err == nil {
		t.Fatal("unknown workload resolved")
	}
}

// localConn answers a worker's requests straight from a coordinator.
type localConn struct{ c *dist.Coordinator }

func (l localConn) Do(req dist.Request) (dist.Response, error) { return l.c.Dispatch(req), nil }
func (l localConn) Close() error                               { return nil }

// TestDistributedByName distributes a fault-matrix and a platoon
// workload, which the distributed tier once could not name, through an
// in-process coordinator and a worker that resolves through the
// registry: the folded statistics must be byte-identical to campaign.Run
// of the same Lookup.
func TestDistributedByName(t *testing.T) {
	for _, name := range []string{"fault-nan/ultimate-conservative", "platoon/burst-link-0"} {
		t.Run(name, func(t *testing.T) {
			wl, err := Lookup(name, models)
			if err != nil {
				t.Fatal(err)
			}
			spec := campaign.Spec{Name: name, Episodes: 24, BaseSeed: 7, Shards: 6, Invariants: wl.Invariants, CountViolations: true}
			want := statsJSON(t, spec, wl)

			c, err := dist.NewCoordinator(dist.Config{Spec: spec, Workload: name})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dist.RunWorker(dist.WorkerConfig{
				ID:      "w",
				Dial:    func() (dist.Conn, error) { return localConn{c}, nil },
				Resolve: Resolver(models),
			}); err != nil {
				t.Fatal(err)
			}
			stats, err := c.WaitResult()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(stats)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("distributed stats differ from campaign.Run:\nwant: %s\ngot:  %s", want, got)
			}
		})
	}
}
