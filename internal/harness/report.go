package harness

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file renders experiment results as the rows/series the paper
// reports, printed by cmd/dlbench.

// FormatFig2 renders the Fig 2 table: per-node dispersal cost normalized
// by block size.
func FormatFig2(points []Fig2Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2 — per-node dispersal communication cost (fraction of |B|)\n")
	fmt.Fprintf(&b, "%8s %10s %12s %12s %12s %10s\n", "N", "|B|", "AVID-M", "AVID-FP", "bound 1/k", "FP/M")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d %10s %12.4f %12.4f %12.4f %10.1fx\n",
			p.N, byteSize(p.BlockSize), p.AVIDM, p.AVIDFP, p.LowerBound, p.AVIDFP/p.AVIDM)
	}
	return b.String()
}

// FormatGeo renders a Fig 8 / Fig 15-style per-city throughput table.
func FormatGeo(results []*GeoResult) string {
	if len(results) == 0 {
		return ""
	}
	return formatThroughput("Per-server throughput (paper-equivalent MB/s)", "site", 12, results[0].Names, results,
		summaryRow{"MEAN", func(r *GeoResult) float64 { return r.Mean }, false},
		// Retrieval bytes received per payload byte delivered, at the
		// node where that is largest; the HoneyBadger modes have no
		// retrieval class.
		summaryRow{"MAX DL/PAYLD", func(r *GeoResult) float64 { return r.RetrieveAmplification }, true})
}

// FormatControlled renders Fig 11a/b-style results, one row per node.
func FormatControlled(title string, results []*GeoResult) string {
	var nodes []string
	if len(results) > 0 {
		for i := range results[0].Throughput {
			nodes = append(nodes, strconv.Itoa(i))
		}
	}
	return formatThroughput(title, "node", 6, nodes, results,
		summaryRow{"mean", func(r *GeoResult) float64 { return r.Mean }, false},
		summaryRow{"std", func(r *GeoResult) float64 { return r.Std }, false})
}

// summaryRow is one aggregate line under a throughput table. With dash,
// a zero value (a mode without the quantity) prints as "-".
type summaryRow struct {
	label string
	value func(*GeoResult) float64
	dash  bool
}

// formatThroughput renders the per-node × per-mode throughput table: a
// title, a header of modes, one row per node labelled in a column of
// width characters, then the summary rows.
func formatThroughput(title, corner string, width int, labels []string, results []*GeoResult, summary ...summaryRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	row := func(label string, cell func(*GeoResult) string) {
		fmt.Fprintf(&b, "%-*s", width, label)
		for _, r := range results {
			fmt.Fprintf(&b, " %10s", cell(r))
		}
		fmt.Fprintln(&b)
	}
	row(corner, func(r *GeoResult) string { return r.Mode.String() })
	for i, label := range labels {
		row(label, func(r *GeoResult) string { return fmt.Sprintf("%.2f", r.Throughput[i]) })
	}
	for _, s := range summary {
		row(s.label, func(r *GeoResult) string {
			if v := s.value(r); v != 0 || !s.dash {
				return fmt.Sprintf("%.2f", v)
			}
			return "-"
		})
	}
	return b.String()
}

// FormatProgress renders Fig 9-style progress series, sampled at fixed
// intervals (bytes confirmed per node over time, paper-equivalent GB).
func FormatProgress(r *GeoResult, step time.Duration, horizon time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9 (%s) — cumulative confirmed bytes (paper-equivalent GB)\n", r.Mode)
	fmt.Fprintf(&b, "%8s", "t")
	for _, name := range r.Names {
		fmt.Fprintf(&b, " %9s", truncate(name, 9))
	}
	fmt.Fprintln(&b)
	for t := time.Duration(0); t <= horizon; t += step {
		fmt.Fprintf(&b, "%8s", t)
		for i := range r.Progress {
			fmt.Fprintf(&b, " %9.3f", r.Confirmed(i, t)/float64(1<<30))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatLatency renders one Fig 10 load point.
func FormatLatency(results []*GeoResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10 — confirmation latency of local transactions (median [p5 p95])\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%s @ %.1f MB/s per node:\n", r.Mode, r.LoadPerNode/float64(1<<20))
		if !r.Steady() {
			fmt.Fprintf(&b, "  NOT STEADY STATE: the slowest node's retrieval backlog grows by %.2f epochs/s; these percentiles are censored by the horizon\n", r.BacklogSlope)
		}
		for i, name := range r.Names {
			fmt.Fprintf(&b, "  %-12s %10s [%8s %8s]\n", name,
				round(r.P50[i]), round(r.P5[i]), round(r.P95[i]))
		}
	}
	return b.String()
}

// FormatScale renders Fig 12 + Fig 13 rows.
func FormatScale(points []*GeoResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12/13 — scalability (throughput in paper-equivalent MB/s)\n")
	fmt.Fprintf(&b, "%6s %10s %12s %8s %18s\n", "N", "block", "throughput", "± std", "dispersal frac")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d %10s %12.2f %8.2f %18.4f\n",
			len(p.Throughput), byteSize(p.FixedBlockBytes), p.Mean, p.Std, p.DispersalFraction)
	}
	return b.String()
}

// FormatHeadline renders the §6.2 headline comparisons from geo runs.
func FormatHeadline(hb, hbLink, dl, dlc *GeoResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§6.2 headline ratios (paper: DL/HB ≈ 2.05x, HB-Link/HB ≈ 1.45x, DL/HB-Link ≈ 1.41x, DL-Coupled ≈ 0.88x DL)\n")
	fmt.Fprintf(&b, "  DL / HB         = %.2fx\n", dl.Mean/hb.Mean)
	fmt.Fprintf(&b, "  HB-Link / HB    = %.2fx\n", hbLink.Mean/hb.Mean)
	fmt.Fprintf(&b, "  DL / HB-Link    = %.2fx\n", dl.Mean/hbLink.Mean)
	fmt.Fprintf(&b, "  DL-Coupled / DL = %.2fx\n", dlc.Mean/dl.Mean)
	return b.String()
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func round(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
