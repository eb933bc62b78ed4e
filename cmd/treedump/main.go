// Command treedump visualizes the paper's layout transformations: it
// prints a sorted key list, its breadth-first and depth-first linearized
// forms (paper Figures 4–6), and a step-by-step trace of the SIMD compare
// sequence for a search key, including each level's bitmask and evaluated
// position.
//
//	treedump -n 26 -search 9
//	treedump -n 11 -search 7 -layout df
//	treedump -n 26 -shape     # structural report of both layouts instead
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bitmask"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/trace"
)

func main() {
	n := flag.Int("n", 26, "number of keys (values 1..n, 64-bit)")
	search := flag.Int64("search", 9, "search key for the trace")
	layoutFlag := flag.String("layout", "bf", "layout to trace: bf or df")
	shapeMode := flag.Bool("shape", false,
		"print the structural-health report of both layouts instead of a search trace")
	flag.Parse()

	if *n < 1 {
		fmt.Fprintln(os.Stderr, "treedump: -n must be at least 1")
		os.Exit(2)
	}
	sorted := make([]int64, *n)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}

	bf, err := kary.BuildChecked(sorted, kary.BreadthFirst)
	if err != nil {
		fmt.Fprintf(os.Stderr, "treedump: %v\n", err)
		os.Exit(1)
	}
	df, err := kary.BuildChecked(sorted, kary.DepthFirst)
	if err != nil {
		fmt.Fprintf(os.Stderr, "treedump: %v\n", err)
		os.Exit(1)
	}

	if *shapeMode {
		// Shape summary mode: per-level fill, register utilization and the
		// §3.3 replenishment cost of each layout, no search trace.
		fmt.Printf("structural reports for %d sorted 64-bit keys (k=%d)\n\n",
			*n, keys.K[int64]())
		fmt.Print(bf.Shape())
		fmt.Println()
		fmt.Print(df.Shape())
		return
	}

	fmt.Printf("k-ary search trees for %d sorted 64-bit keys (k=%d, %d parallel compares)\n\n",
		*n, keys.K[int64](), keys.Lanes[int64]())
	fmt.Printf("sorted:         %v\n", sorted)
	fmt.Printf("breadth-first:  %v   (levels=%d, stored=%d, pads=%d)\n",
		bf.Linearized(), bf.Levels(), bf.Stored(), bf.Stored()-bf.Len())
	fmt.Printf("depth-first:    %v   (levels=%d, stored=%d, pads=%d)\n\n",
		df.Linearized(), df.Levels(), df.Stored(), df.Stored()-df.Len())

	layout := kary.BreadthFirst
	tree := bf
	if strings.EqualFold(*layoutFlag, "df") {
		layout = kary.DepthFirst
		tree = df
	}
	fmt.Printf("search trace for key %d on the %s layout:\n", *search, layout)
	// The trace is recorded by the same kernel the search runs (the
	// hand-rolled replay this command once carried could drift from it).
	tr := trace.New("search", fmt.Sprint(*search))
	pos := tree.SearchPT(*search, kary.Prepare(*search), bitmask.Popcount, tr)
	tr.Finish(pos < tree.Len())
	for _, s := range tr.Steps {
		fmt.Printf("  %s\n", renderStep(s, *search))
	}
	fmt.Printf("totals: %d SIMD compares, %d mask evaluations\n",
		tr.SIMDComparisons(), tr.MaskEvaluations())
	fmt.Printf("result: first key greater than %d is at sorted position %d (binary search agrees: %d)\n",
		*search, pos, kary.UpperBound(sorted, *search))
}

// renderStep formats one trace step in treedump's level-per-line style.
func renderStep(s trace.Step, v int64) string {
	switch s.Kind {
	case trace.KindSIMD:
		return fmt.Sprintf("level %d: load [%s]  compare >%d  movemask=%#04x  position=%d",
			s.Level, strings.Join(s.Loaded, " "), v, s.Mask, s.Position)
	case trace.KindFastPath:
		switch s.Note {
		case "empty-node":
			return "(empty tree)"
		case "smax-short-circuit":
			return fmt.Sprintf("v >= S_max: replenishment check short-circuits, position=%d", s.Position)
		default:
			return fmt.Sprintf("level %d: %s, digits stay 0", s.Level, s.Note)
		}
	default:
		return fmt.Sprintf("%s position=%d", s.Kind, s.Position)
	}
}
