// Command delorean-fuzz drives the differential validation harness
// (internal/diffcheck): each seed generates a random workload, runs it
// through the full oracle matrix — cross-model agreement on race-free
// programs, perturbed replay determinism, serialization and LZ77 round
// trips, interval and segmented replay, and log fault injection — and reports any oracle
// that failed to hold.
//
// Usage:
//
//	delorean-fuzz -seeds 200             # seeds 1..200
//	delorean-fuzz -seed 137 -v           # reproduce one failing seed
//	delorean-fuzz -seeds 50 -procs 8     # wider machine
//
// Failures print the seed; the same seed and flags reproduce the same
// failure deterministically.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"delorean/internal/diffcheck"
	"delorean/internal/runner"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 50, "number of seeds to check (1..N)")
		seed     = flag.Uint64("seed", 0, "check exactly this one seed (overrides -seeds)")
		procs    = flag.Int("procs", 0, "processor count (default 4)")
		chunk    = flag.Int("chunk", 0, "standard chunk size (default 200)")
		noFaults = flag.Bool("nofaults", false, "skip the fault-injection oracles")
		parallel = flag.Int("parallel", 0, "worker pool for independent seeds (0: GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "print every seed's check counts")
	)
	flag.Parse()

	opts := diffcheck.DefaultOptions()
	if *procs > 0 {
		opts.NProcs = *procs
	}
	if *chunk > 0 {
		opts.ChunkSize = *chunk
	}
	opts.Faults = !*noFaults

	first, n := uint64(1), *seeds
	if *seed != 0 {
		first, n = *seed, 1
	}

	reports, _ := runner.Map(*parallel, n, func(i int) (diffcheck.Report, error) {
		return diffcheck.Check(first+uint64(i), opts), nil
	})

	checks, benign, failed := 0, 0, 0
	for _, rep := range reports {
		checks += rep.Checks
		benign += rep.Benign
		if !rep.OK() {
			failed++
			fmt.Printf("FAIL seed %d (reproduce: delorean-fuzz -seed %d):\n  %s\n",
				rep.Seed, rep.Seed, strings.Join(rep.Failures, "\n  "))
		} else if *verbose {
			fmt.Printf("ok   seed %d: %d checks, %d benign faults\n", rep.Seed, rep.Checks, rep.Benign)
		}
	}
	fmt.Printf("%d seeds, %d oracle checks, %d benign faults, %d failed\n", n, checks, benign, failed)
	if failed > 0 {
		os.Exit(1)
	}
}
