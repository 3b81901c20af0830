// Command perfbench is the repository's benchmark: one command that
// runs a named workload against the analyzers or the phpsafed daemon,
// checks every result against the corpus generator's labels, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output. See README.md.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one workload run's figures and checks.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	daemon   string
	workdir  string

	attempted, failed int
	problems          []string       // oracle disagreements and failed validity checks
	validity          map[string]any // measured shares behind each validity assertion
	samples           map[string]int // sample counts behind each metric
	metrics           map[string]metric
	notes             map[string]any // provenance of individual figures
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// fail records an oracle disagreement or a broken validity assertion.
func (r *run) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// deadline returns when the measured part of the run must stop.
func (r *run) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(r.seconds * float64(time.Second)))
}

var workloads = map[string]func(context.Context, *run) error{
	"corpus-batch":      corpusBatch,
	"service-fresh":     serviceFresh,
	"service-revisions": serviceRevisions,
	"fleet-fresh":       fleetFresh,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload: corpus-batch, service-fresh, service-revisions or fleet-fresh")
	seed := flag.Int64("seed", 1, "seed for the corpus and every random choice of the workload")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	daemonBin := flag.String("daemon", "", "phpsafed binary built from this checkout")
	workdir := flag.String("workdir", "", "scratch directory inside the checkout")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *workdir == "" {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d, workdir %q)\n",
			*workload, *seconds, *trace, *workdir)
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		daemon: *daemonBin, workdir: dir,
		validity: map[string]any{}, samples: map[string]int{},
		metrics: map[string]metric{}, notes: map[string]any{},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := fn(ctx, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}

	prov := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "commit": commit(),
		"samples": r.samples, "validity": r.validity, "notes": r.notes,
		"problems": r.problems,
	}
	side, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(side))
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out, err := json.Marshal(result{
		Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// commit names the measured source: the git commit when the checkout
// is a repository, otherwise a digest of go.mod and every .go file
// under cmd/ and internal/.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	add := func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	}
	err := add("go.mod")
	for _, root := range []string{"cmd", "internal"} {
		if err != nil {
			break
		}
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			return add(path)
		})
	}
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
