package harness

import (
	"testing"
	"time"

	"dledger/internal/core"
)

// BenchmarkGeoBoot measures the emulator's cost on the repository
// benchmark's wan16 setup: build the 16-city AWS cluster at scale 1/64
// under infinite backlog and run it in 100 ms steps of virtual time until
// every node has delivered an epoch. Its ns/op and allocs/op are what
// wan16's setup_s reads, without the benchmark driver.
func BenchmarkGeoBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := GeoParams{Mode: core.ModeDL, Duration: 50 * time.Second, Seed: 1}
		c, err := p.cluster()
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		for now := time.Duration(0); !everyNodeDelivered(c); {
			if now >= p.Duration {
				b.Fatalf("not every node delivered an epoch within %v", p.Duration)
			}
			now += 100 * time.Millisecond
			c.Run(now)
		}
	}
}

func everyNodeDelivered(c *Cluster) bool {
	for _, r := range c.Replicas {
		if r.Stats.EpochsDelivered == 0 {
			return false
		}
	}
	return true
}
