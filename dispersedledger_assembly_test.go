package dispersedledger

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dledger/dlclient"
	"dledger/internal/telemetry"
)

// deployment is what the scenario of TestOneAssembly needs from a
// running 4-node cluster, whichever entry point built it.
type deployment struct {
	submit     func(i int, tx []byte)
	deliveries func(i int) <-chan Delivery
	stats      func(i int) Stats
	tel        func(i int) *telemetry.Metrics
	clientAddr func(i int) string
	close      func()
}

func assemblyConfig(dir string) Config {
	return Config{
		N: 4, F: 1,
		CoinSecret:    []byte("one assembly secret"),
		BatchDelay:    20 * time.Millisecond,
		DataDir:       dir,
		ClientGateway: true,
		Telemetry:     true,
	}
}

func openCluster(t *testing.T, dir string) deployment {
	t.Helper()
	c, err := NewCluster(assemblyConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	addrs := make([]string, c.N())
	for i := range addrs {
		if addrs[i], err = c.ServeClients(i, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	return deployment{
		submit: func(i int, tx []byte) { must(c.Submit(i, tx)) },
		deliveries: func(i int) <-chan Delivery {
			ch, err := c.Deliveries(i)
			must(err)
			return ch
		},
		stats: func(i int) Stats {
			s, err := c.Stats(i)
			must(err)
			return s
		},
		tel: func(i int) *telemetry.Metrics {
			m, err := c.Telemetry(i)
			must(err)
			return m
		},
		clientAddr: func(i int) string { return addrs[i] },
		close:      c.Close,
	}
}

func openTCPNodes(t *testing.T, dir string) deployment {
	t.Helper()
	const n = 4
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := assemblyConfig(filepath.Join(dir, fmt.Sprintf("node-%d", i)))
		node, err := NewTCPNode(NodeOptions{
			Config: cfg, Self: i, Addrs: addrs, Listener: listeners[i],
			ClientAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return deployment{
		submit:     func(i int, tx []byte) { nodes[i].Submit(tx) },
		deliveries: func(i int) <-chan Delivery { return nodes[i].Deliveries() },
		stats:      func(i int) Stats { return nodes[i].Stats() },
		tel:        func(i int) *telemetry.Metrics { return nodes[i].Telemetry() },
		clientAddr: func(i int) string { return nodes[i].ClientAddr() },
		close: func() {
			for _, node := range nodes {
				node.Close()
			}
		},
	}
}

// populated lists the Stats fields (Gateway's flattened in) that are
// non-zero, leaving out the ones whose value after a fixed scenario
// still depends on timing.
func populated(s Stats) []string {
	timing := map[string]bool{"LinkedBlocks": true, "MempoolBytes": true, "DroppedDeliveries": true}
	var out []string
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name := prefix + v.Type().Field(i).Name
			switch f := v.Field(i); {
			case f.Kind() == reflect.Struct:
				walk(name+".", f)
			case !f.IsZero() && !timing[name]:
				out = append(out, name)
			}
		}
	}
	walk("", reflect.ValueOf(s))
	return out
}

// families lists the dl_* metric families a node exposes.
func families(t *testing.T, m *telemetry.Metrics) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		out = append(out, f[2])
	}
	sort.Strings(out)
	return out
}

// TestOneAssembly runs one scenario through both entry points of the
// node assembly — NewCluster and NewTCPNode — and requires the same
// observable surface from each: a transaction submitted through every
// node is delivered in that node's block, in one order everywhere;
// Stats reflect it; a gateway client gets a verifiable commit proof;
// and a deployment reopened from its DataDir recovers its counters and
// still proves the pre-restart commit. What the two expose (populated
// Stats fields, dl_* metric families) must be the same sets.
func TestOneAssembly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real-time clusters on disk")
	}
	type surface struct{ stats, families []string }
	surfaces := map[string]surface{}
	for _, entry := range []struct {
		name string
		open func(*testing.T, string) deployment
	}{
		{"NewCluster", openCluster},
		{"NewTCPNode", openTCPNodes},
	} {
		t.Run(entry.name, func(t *testing.T) {
			dir := t.TempDir()
			d := entry.open(t, dir)
			closed := false
			defer func() {
				if !closed {
					d.close()
				}
			}()

			txs := make([][]byte, 4)
			for i := range txs {
				txs[i] = []byte(fmt.Sprintf("assembly tx through node %d", i))
				d.submit(i, txs[i])
			}
			// Every node delivers the four transactions, each in a block
			// of the node it was submitted through, and the sequence of
			// transaction-carrying blocks is the same everywhere.
			var logs [4][]string
			for i := range logs {
				seen := 0
				deadline := time.After(30 * time.Second)
				for seen < len(txs) {
					select {
					case blk := <-d.deliveries(i):
						if len(blk.Txs) == 0 {
							continue
						}
						logs[i] = append(logs[i], fmt.Sprintf("%d/%d %q", blk.Epoch, blk.Proposer, blk.Txs))
						for _, tx := range blk.Txs {
							for via, want := range txs {
								if bytes.Equal(tx, want) {
									seen++
									if blk.Proposer != via {
										t.Fatalf("node %d: tx submitted through node %d delivered from proposer %d", i, via, blk.Proposer)
									}
								}
							}
						}
					case <-deadline:
						t.Fatalf("node %d delivered %d of %d transactions", i, seen, len(txs))
					}
				}
				if s := d.stats(i); s.DeliveredTxs < int64(len(txs)) {
					t.Fatalf("node %d: stats lag the delivery channel: %+v", i, s)
				}
				if i > 0 && !reflect.DeepEqual(logs[i], logs[0]) {
					t.Fatalf("delivery order differs:\nnode 0: %v\nnode %d: %v", logs[0], i, logs[i])
				}
			}

			// A gateway client's transaction commits with a proof that
			// verifies against the block's transaction root.
			cl, err := dlclient.Dial(d.clientAddr(0), dlclient.Options{Name: "assembly-client"})
			if err != nil {
				t.Fatal(err)
			}
			probe := []byte("assembly tx through the gateway")
			proof, err := cl.SubmitAndWait(probe, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !proof.Verify(probe) || cl.VerifyFailures() != 0 {
				t.Fatal("commit proof failed verification")
			}
			cl.Close()

			const total = 5
			waitUntil(t, 30*time.Second, func() bool {
				for i := range txs {
					if d.stats(i).DeliveredTxs < total {
						return false
					}
				}
				return true
			}, "every node delivers the gateway transaction too")
			var before [4]Stats
			for i := range before {
				s := d.stats(i)
				if s.DeliveredTxs != total || s.DeliveredPayload <= 0 || s.EpochsDelivered <= 0 || s.StoreErrors != 0 {
					t.Fatalf("node %d stats: %+v", i, s)
				}
				if want := int64(1); s.Submitted < want || (i > 0 && s.Submitted != want) {
					t.Fatalf("node %d Submitted = %d", i, s.Submitted)
				}
				before[i] = s
			}
			if g := before[0].Gateway; g.Accepted != 1 || g.CommitsStreamed != 1 || g.Commits != total {
				t.Fatalf("node 0 gateway counters: %+v", g)
			}
			surfaces[entry.name] = surface{populated(before[0]), families(t, d.tel(0))}

			// Reopen from the DataDir: the delivery counters come back
			// from the log (nothing re-delivered, nothing lost) and the
			// pre-restart commit is still provable, with the same root.
			d.close()
			closed = true
			d = entry.open(t, dir)
			defer d.close()
			for i := range before {
				s := d.stats(i)
				if s.DeliveredTxs != total || s.DeliveredPayload != before[i].DeliveredPayload || s.EpochsDelivered < before[i].EpochsDelivered {
					t.Fatalf("node %d recovered %+v, had %+v", i, s, before[i])
				}
			}
			cl, err = dlclient.Dial(d.clientAddr(0), dlclient.Options{Name: "assembly-client"})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			again, err := cl.SubmitAndWait(probe, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if again.Epoch != proof.Epoch || again.Proposer != proof.Proposer || again.Root != proof.Root || !again.Verify(probe) {
				t.Fatalf("post-restart proof %+v, pre-restart %+v", again, proof)
			}
			if s := d.stats(0); s.DeliveredTxs != total || s.Gateway.RejectedDuplicate != 1 {
				t.Fatalf("resubmission after restart: %+v", s)
			}
		})
	}
	a, b := surfaces["NewCluster"], surfaces["NewTCPNode"]
	if t.Failed() || a.stats == nil || b.stats == nil {
		return
	}
	if !reflect.DeepEqual(a.stats, b.stats) {
		t.Errorf("populated Stats fields differ:\nNewCluster: %v\nNewTCPNode: %v", a.stats, b.stats)
	}
	if !reflect.DeepEqual(a.families, b.families) {
		t.Errorf("dl_* families differ:\nNewCluster: %v\nNewTCPNode: %v", a.families, b.families)
	}
	if len(a.families) == 0 {
		t.Error("no dl_* families exposed")
	}
}
