// Command semwebbench is the repository's benchmark: it drives the real
// service tier (semweb/serve, wired as cmd/semwebd wires it) over
// loopback HTTP from inside its own process and reports end-to-end
// metrics, or with -trace 1 the per-layer ones from a traced run and a
// layer replay. bench/README.md documents workloads, metrics and how to
// read the output.
//
// Usage:
//
//	semwebbench -workload NAME -seed N -seconds S -trace 0|1   one run, result as the last stdout line
//	semwebbench -suite -o FILE [-trace 1] [-seed N]            all four workloads into one result file
//	semwebbench -compare A.json B.json                         repeatability of two result files
//	semwebbench -spec                                          print BENCHMARK.json
//
// Nothing outlives the process: there are no child processes, and
// listener, databases, replication follower and temporary directories
// are torn down on normal exit, on SIGINT/SIGTERM and when the
// -max-wall watchdog fires.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// maxFailedShare is the share of failed operations above which a
// workload's result is incorrect.
const maxFailedShare = 0.001

// maxClients is the number of closed-loop clients, each on its own
// keep-alive connection; a box with fewer CPUs gets fewer.
const maxClients = 2

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("semwebbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: point_read, join_stream, write_read or bulk_recover")
	seed := fs.Int64("seed", 1, "seed the dataset and every request are generated from")
	seconds := fs.Float64("seconds", 0, "length of the timed window (default 20, 1 under -quick)")
	trace := fs.Int("trace", 0, "1 runs the traced passes and the layer replay and reports per-layer metrics")
	quick := fs.Bool("quick", false, "5k-triple base and a 1 s window: the smoke size `go test` uses")
	suite := fs.Bool("suite", false, "run all four workloads and write one result file (-o)")
	outFile := fs.String("o", "", "result file of -suite")
	compare := fs.Bool("compare", false, "compare two -suite result files given as arguments")
	spec := fs.Bool("spec", false, "print BENCHMARK.json")
	maxWall := fs.Duration("max-wall", 170*time.Second, "watchdog: abort, tear down and exit non-zero after this long (per workload)")
	tmp := fs.String("tmp", ".bench_build/tmp", "directory for database directories (created, emptied of what the run made)")
	out := fs.String("out", "bench/out", "directory the traced run writes trace-<workload>.json to")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *spec:
		if err := writeSpec(stdout); err != nil {
			fmt.Fprintln(stderr, "semwebbench:", err)
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: semwebbench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	o := defaultOptions(*quick)
	o.seed, o.traced = *seed, *trace != 0
	if *seconds > 0 {
		o.seconds = *seconds
	}
	nclients := min(maxClients, runtime.NumCPU())

	names := []string{*workload}
	if *suite {
		if *outFile == "" {
			fmt.Fprintln(stderr, "semwebbench: -suite needs -o FILE")
			return 2
		}
		names = names[:0]
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	} else if !isWorkload(*workload) {
		fmt.Fprintf(stderr, "semwebbench: -workload must be one of the four workloads, got %q\n", *workload)
		return 2
	}

	// A suite measures end to end first and, with -trace 1, adds the
	// traced run of each workload to the same file.
	passes := []bool{o.traced}
	if *suite && o.traced {
		passes = []bool{false, true}
	}
	file := newSuiteFile(o, nclients)
	code := 0
	for _, name := range names {
		for _, traced := range passes {
			o.workload, o.traced = name, traced
			res, err := guarded(o, *tmp, *out, nclients, *maxWall, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "semwebbench: %s: %v\n", name, err)
				if res != nil {
					fmt.Fprint(stderr, "semwebbench: partial result: ")
					printResult(stderr, res, false)
				}
				return 1
			}
			correct := res.Ops > 0 && float64(res.Failed) <= maxFailedShare*float64(res.Ops)
			if !correct {
				fmt.Fprintf(stderr, "semwebbench: %s: %d of %d operations failed; first: %v\n", name, res.Failed, res.Ops, res.firstFailure)
				code = 1
			}
			file.add(name, res, traced)
			if !*suite {
				printResult(stdout, res, correct)
			}
		}
	}
	if *suite {
		if err := file.write(*outFile); err != nil {
			fmt.Fprintln(stderr, "semwebbench:", err)
			return 1
		}
		file.print(stdout)
	}
	return code
}

func isWorkload(name string) bool {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return true
		}
	}
	return false
}

var errWatchdog = errors.New("-max-wall watchdog fired")

// abortGrace is how long a cancelled run may take to unwind before the
// process tears down and exits from under it.
const abortGrace = 15 * time.Second

// guarded runs one workload under the teardown discipline: whatever
// ends the run (completion, failure, SIGINT/SIGTERM, the watchdog),
// the cleanup stack runs before the process moves on. A signal or the
// watchdog cancels the run's context; every request carries it, so the
// workload unwinds promptly and returns what it had. Should it not
// unwind within abortGrace, the stack runs anyway and the process exits.
func guarded(o options, tmp, out string, clients int, maxWall time.Duration, stderr io.Writer) (*result, error) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	e := &env{ctx: ctx, tmp: tmp, out: out, clean: &cleanup{}, clients: clients}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	watchdog := time.NewTimer(maxWall)
	defer watchdog.Stop()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case sig := <-sigc:
			cancel(fmt.Errorf("received %v", sig))
		case <-watchdog.C:
			cancel(errWatchdog)
		case <-stop:
			return
		}
		select {
		case <-time.After(abortGrace):
			fmt.Fprintf(stderr, "semwebbench: %s did not unwind after %v; tearing down and exiting\n", o.workload, context.Cause(ctx))
			_ = e.clean.run()
			os.Exit(3)
		case <-stop:
		}
	}()

	res, err := runWorkload(e, o)
	if cerr := e.clean.run(); cerr != nil && err == nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	_ = os.Remove(tmp) // only succeeds once the last run's directories are gone
	if cause := context.Cause(ctx); cause != nil && err != nil {
		fmt.Fprintf(stderr, "semwebbench: %s aborted: %v\n", o.workload, cause)
	}
	return res, err
}

// printResult writes the driver's contract line: one JSON object, last
// on standard output.
func printResult(w io.Writer, res *result, correct bool) {
	metrics := map[string]map[string]any{}
	for name, v := range res.Metrics {
		metrics[name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.Ops,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
}
