package harness

import (
	"fmt"
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
	var b strings.Builder
	fmt.Fprintf(&b, "Per-server throughput (paper-equivalent MB/s)\n")
	fmt.Fprintf(&b, "%-12s", "site")
	for _, r := range results {
		fmt.Fprintf(&b, " %10s", r.Mode)
	}
	fmt.Fprintln(&b)
	for i, name := range results[0].Names {
		fmt.Fprintf(&b, "%-12s", name)
		for _, r := range results {
			fmt.Fprintf(&b, " %10.2f", r.Throughput[i])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-12s", "MEAN")
	for _, r := range results {
		fmt.Fprintf(&b, " %10.2f", r.Mean)
	}
	fmt.Fprintln(&b)
	// Retrieval bytes received per payload byte delivered, at the node
	// where that is largest; the HoneyBadger modes have no retrieval class.
	fmt.Fprintf(&b, "%-12s", "MAX DL/PAYLD")
	for _, r := range results {
		if r.RetrieveAmplification == 0 {
			fmt.Fprintf(&b, " %10s", "-")
			continue
		}
		fmt.Fprintf(&b, " %10.2f", r.RetrieveAmplification)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// FormatProgress renders Fig 9-style progress series, sampled at fixed
// intervals (bytes confirmed per node over time, paper-equivalent GB).
func FormatProgress(r *ProgressResult, step time.Duration, horizon time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9 (%s) — cumulative confirmed bytes (paper-equivalent GB)\n", r.Mode)
	fmt.Fprintf(&b, "%8s", "t")
	for _, name := range r.Names {
		fmt.Fprintf(&b, " %9s", truncate(name, 9))
	}
	fmt.Fprintln(&b)
	for t := time.Duration(0); t <= horizon; t += step {
		fmt.Fprintf(&b, "%8s", t)
		for _, ts := range r.Series {
			fmt.Fprintf(&b, " %9.3f", ts.At(t)/float64(1<<30))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatLatency renders one Fig 10 load point.
func FormatLatency(results []*LatencyResult) string {
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

// FormatControlled renders Fig 11a/b-style results.
func FormatControlled(title string, results []*ControlledResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "%-6s", "node")
	for _, r := range results {
		fmt.Fprintf(&b, " %10s", r.Mode)
	}
	fmt.Fprintln(&b)
	if len(results) > 0 {
		for i := range results[0].Throughput {
			fmt.Fprintf(&b, "%-6d", i)
			for _, r := range results {
				fmt.Fprintf(&b, " %10.2f", r.Throughput[i])
			}
			fmt.Fprintln(&b)
		}
	}
	fmt.Fprintf(&b, "%-6s", "mean")
	for _, r := range results {
		fmt.Fprintf(&b, " %10.2f", r.Mean)
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "%-6s", "std")
	for _, r := range results {
		fmt.Fprintf(&b, " %10.2f", r.Std)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// FormatScale renders Fig 12 + Fig 13 rows.
func FormatScale(points []*ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12/13 — scalability (throughput in paper-equivalent MB/s)\n")
	fmt.Fprintf(&b, "%6s %10s %12s %8s %18s\n", "N", "block", "throughput", "± std", "dispersal frac")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d %10s %12.2f %8.2f %18.4f\n",
			p.N, byteSize(p.BlockBytes), p.Throughput, p.ThroughputStd, p.DispersalFraction)
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
