// Command spinalyze consumes the qlog traces written by cmd/spinscan and
// regenerates the paper's tables and figures: the adoption overview
// (Tables 1/4), the AS-organisation attribution (Table 2, requires an
// asdb snapshot), the spin-configuration breakdown (Table 3), the
// connection errors by class (Table 5), and the RTT-accuracy histograms
// (Figs. 3 and 4).
//
// Usage:
//
//	spinalyze -qlog-dir ./qlogs
//	spinalyze -qlog-dir ./qlogs -asdb ./asdb.txt -fig 4
//	spinalyze -qlog-dir ./qlogs -table 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"quicspin/internal/analysis"
	"quicspin/internal/asdb"
	"quicspin/internal/report"
	"quicspin/internal/scanner"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		log.Fatal(err)
	}
}

// errUsage reports a command line run cannot act on; the usage is printed.
var errUsage = errors.New("spinalyze: bad usage")

// run is spinalyze with its arguments, rendering to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spinalyze", flag.ContinueOnError)
	qlogDir := fs.String("qlog-dir", "", "directory with .qlog traces from spinscan (required)")
	asdbPath := fs.String("asdb", "", "asdb snapshot for Table 2 org attribution (optional)")
	table := fs.Int("table", 0, "render only this table (1-5; 0 = all)")
	fig := fs.Int("fig", 0, "render only this figure (3 or 4; 0 = all)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	if *qlogDir == "" {
		fs.Usage()
		return errUsage
	}
	files, err := filepath.Glob(filepath.Join(*qlogDir, "*.qlog"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no .qlog files in %s (%v)", *qlogDir, err)
	}
	var readers []io.Reader
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return fmt.Errorf("open %s: %v", f, err)
		}
		readers = append(readers, fh)
		closers = append(closers, fh)
	}
	results, err := scanner.MergeQlogConns(readers)
	if err != nil {
		return fmt.Errorf("parsing qlogs: %v", err)
	}
	// Table 2 attribution happens while folding, so the snapshot loads first;
	// without one the resolver stays nil and Table 2 is skipped.
	var resolver *asdb.Resolver
	if *asdbPath != "" {
		fh, err := os.Open(*asdbPath)
		if err != nil {
			return fmt.Errorf("open asdb: %v", err)
		}
		tbl, orgs, err := asdb.ReadSnapshot(fh)
		fh.Close()
		if err != nil {
			return fmt.Errorf("parse asdb: %v", err)
		}
		resolver = &asdb.Resolver{Table: tbl, Orgs: orgs}
	}
	camp := analysis.NewCampaignAccumulator()
	for _, res := range results {
		log.Printf("loaded week %d (ipv6=%v): %d domains", res.Week, res.IPv6, len(res.Domains))
		camp.StartWeek(res.Week, res.IPv6, resolver).AddResult(res)
	}
	weeks := camp.Weeks()
	wk := weeks[len(weeks)-1]

	show := func(n int) bool { return *table == 0 && *fig == 0 || *table == n }
	showFig := func(n int) bool { return *table == 0 && *fig == 0 || *fig == n }
	render := func(t *report.Table) error {
		if err := t.Render(stdout); err != nil {
			return err
		}
		_, err := fmt.Fprintln(stdout)
		return err
	}

	var tables []*report.Table
	if show(1) || show(4) {
		tables = append(tables, wk.RenderOverview())
	}
	if show(2) {
		if resolver == nil {
			log.Print("skipping Table 2: no -asdb snapshot given")
		} else {
			tables = append(tables, wk.RenderOrgTable(8))
		}
	}
	if show(3) {
		tables = append(tables, wk.RenderSpinConfig(), wk.RenderSoftwareTable())
	}
	if show(5) {
		tables = append(tables, wk.RenderErrorClasses())
	}
	if len(weeks) > 1 && (*table == 0 && *fig == 0 || *fig == 2) {
		tables = append(tables, analysis.RenderLongitudinal(camp.Longitudinal()))
	}
	for _, t := range tables {
		if err := render(t); err != nil {
			return err
		}
	}
	if showFig(3) {
		fmt.Fprint(stdout, camp.RenderAccuracy(3))
	}
	if showFig(4) {
		fmt.Fprint(stdout, camp.RenderAccuracy(4))
		h := camp.Headlines()
		fmt.Fprintf(stdout, "headlines: n=%d overestimate=%.1f%% within-25ms=%.1f%% >200ms=%.1f%% within-25%%=%.1f%% within-2x=%.1f%% >3x=%.1f%%\n",
			h.N, h.OverestimateShare*100, h.Within25ms*100, h.Over200ms*100,
			h.Within25pct*100, h.Within2x*100, h.Over3x*100)
	}
	return nil
}
