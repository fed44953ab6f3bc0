// Command dlnode runs one DispersedLedger node of a real TCP deployment.
//
// Every node of a cluster runs the same binary with the same -peers list,
// -secret and -keydir, differing only in -id:
//
//	dlnode -genkeys 4 -keydir ./keys    # once, then distribute
//	dlnode -id 0 -peers host0:7000,host1:7000,host2:7000,host3:7000 -secret s3cret -keydir ./keys
//	dlnode -id 1 -peers ... -secret s3cret -keydir ./keys
//	...
//
// With -gen R the node also generates a synthetic transaction load of R
// MB/s (the paper's workload) and prints per-second statistics.
//
// Client gateway: with -client the node serves the client-facing
// submission protocol on the given address — the production front door:
//
//	dlnode -id 0 -peers ... -secret s3cret -keydir ./keys -client :9000 -mempool 64
//
// External clients (package dlclient, or the cmd/dlload load generator)
// connect there to submit transactions and receive an immediate
// accept/reject receipt plus, on delivery, a commit proof — the block
// slot and a Merkle inclusion path verifiable against the block's
// transaction root. Every node deduplicates submissions by content hash
// and indexes commit proofs, with or without -client, so client retries
// and post-crash resubmissions are idempotent (with -datadir the dedup
// index survives restarts via the WAL), and -mempool caps the queued
// backlog in MB: past the budget, submissions are rejected with a
// retry-after hint instead of queued unboundedly.
//
// Peer authentication: every peer connection opens with an ed25519
// challenge-response handshake, so every node needs -keydir. Run
// `dlnode -genkeys 4 -keydir ./keys` once to create an identity keyring
// for a 4-node cluster and give each node public.keys and its own
// node<i>.key.
//
// Durability: with -datadir the node persists a write-ahead log (its
// protocol outcomes AND every binary-agreement vote it sends — so a
// restarted node re-sends exactly its pre-crash votes and a restart
// never consumes the cluster's fault budget), its stored AVID chunks
// and periodic checkpoints to the directory, and a node restarted with
// the same -datadir recovers its log position, serves retrievals for
// pre-crash epochs, and rejoins the cluster where it left off:
//
//	dlnode -id 0 -peers ... -secret s3cret -keydir ./keys -datadir /var/lib/dlnode0
//
// fsync policy: writes are batched — one fsync covers every record of a
// protocol step — so a host crash loses at most the newest step, which
// recovery treats as never having happened. The log is checkpointed and
// compacted every ~64 delivered epochs. Pair -datadir with -retain:
// chunk segments are reclaimed in step with the -retain horizon, so
// -retain 0 (keep everything) makes the chunk store grow with the
// ledger, while e.g. -retain 1000 bounds it. Without -datadir the node
// is memory-only and a restart rejoins as a fresh, empty node.
//
// State sync (always on): nodes record attestable checkpoints as they
// deliver and serve them to peers. A node whose outage outlasts every
// peer's -retain horizon bootstraps from a verified peer checkpoint
// instead of wedging in catch-up, and a brand-new member joins with
//
//	dlnode -id 3 -peers ... -secret s3cret -keydir ./keys -datadir /var/lib/dlnode3 -join
//
// (the membership slot must already exist in every node's -peers list;
// membership itself is static). The checkpoint is trusted only on f+1
// identical peer attestations and every transferred chunk is verified
// against its Merkle root — see DESIGN.md "State sync".
//
// The operator guide — flag reference, crash/restart and
// beyond-horizon runbooks, and what every Stats counter means in
// production — is docs/OPERATIONS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	dl "dledger"
	"dledger/internal/trace"
	"dledger/internal/workload"
)

func main() {
	id := flag.Int("id", -1, "this node's index into -peers")
	peers := flag.String("peers", "", "comma-separated list of all node addresses, in id order")
	secret := flag.String("secret", "", "shared coin secret (same on every node)")
	f := flag.Int("f", 0, "fault tolerance (0 = floor((n-1)/3))")
	gen := flag.Float64("gen", 0, "generate synthetic load at this many MB/s")
	txSize := flag.Int("txsize", 256, "synthetic transaction size in bytes")
	statsEvery := flag.Duration("stats", time.Second, "statistics print interval")
	keydir := flag.String("keydir", "", "directory with the cluster's identity keys (required; see -genkeys)")
	genkeys := flag.Int("genkeys", 0, "generate identity keys for this many nodes into -keydir, then exit")
	retain := flag.Uint64("retain", 0, "garbage-collect epochs this far behind delivery (0 = keep all); with -datadir this also bounds the on-disk chunk store")
	datadir := flag.String("datadir", "", "directory for the write-ahead log, chunk store and checkpoints; restarting with the same directory recovers the node (empty = memory only)")
	clientAddr := flag.String("client", "", "serve the client gateway on this address (empty = no client port)")
	adminAddr := flag.String("admin", "", "serve the operator admin endpoint on this address: /metrics (Prometheus), /statusz (JSON), /healthz, /debug/pprof (empty = no admin port; implies telemetry)")
	mempoolMB := flag.Float64("mempool", 0, "mempool byte budget in MB; submissions beyond it are rejected with a retry-after hint (0 = unbounded)")
	clientRate := flag.Float64("clientrate", 0, "per-client admission rate limit in KB/s; a flooder is rejected with a retry-after hint before it can consume the shared mempool budget (0 = unlimited)")
	join := flag.Bool("join", false, "join a running cluster as a brand-new member: bootstrap from a peer checkpoint instead of replaying history (requires an empty -datadir; every dlnode runs state sync)")
	forceRestart := flag.Bool("force-restart", false, "open a -datadir flagged UNSAFE_RESTART (a durable write failed during the previous run) anyway, clearing the flag; the node recovers to a stale position and may spend the cluster's fault budget — see docs/OPERATIONS.md")
	flag.Parse()

	if *genkeys > 0 {
		if err := writeKeys(*genkeys, *keydir); err != nil {
			fmt.Fprintln(os.Stderr, "dlnode:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d keyrings to %s\n", *genkeys, *keydir)
		return
	}

	addrs := strings.Split(*peers, ",")
	if *id < 0 || *id >= len(addrs) || len(addrs) < 4 {
		fmt.Fprintln(os.Stderr, "dlnode: need -id and a -peers list of at least 4 addresses")
		os.Exit(2)
	}
	if *secret == "" {
		fmt.Fprintln(os.Stderr, "dlnode: -secret is required and must match across the cluster")
		os.Exit(2)
	}
	if *keydir == "" {
		fmt.Fprintln(os.Stderr, "dlnode: -keydir is required (create the keys once with -genkeys N -keydir DIR)")
		os.Exit(2)
	}
	n := len(addrs)
	faults := *f
	if faults == 0 {
		faults = (n - 1) / 3
	}
	keys, err := readKeys(*keydir, *id, n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlnode:", err)
		os.Exit(1)
	}

	node, err := dl.NewTCPNode(dl.NodeOptions{
		Config: dl.Config{
			N: n, F: faults,
			CoinSecret:      []byte(*secret),
			RetainEpochs:    *retain,
			DataDir:         *datadir,
			MempoolBytes:    int(*mempoolMB * trace.MB),
			ClientRateLimit: *clientRate * 1024,
			StateSync:       true,
			ForceRestart:    *forceRestart,
		},
		Self:       *id,
		Addrs:      addrs,
		Keys:       keys,
		ClientAddr: *clientAddr,
		AdminAddr:  *adminAddr,
		Join:       *join,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlnode:", err)
		os.Exit(1)
	}
	defer node.Close()
	fmt.Printf("dlnode %d/%d listening on %s (mode DL, f=%d)\n", *id, n, node.Addr(), faults)
	if ca := node.ClientAddr(); ca != "" {
		fmt.Printf("dlnode %d client gateway on %s\n", *id, ca)
	}

	// Drain deliveries so the channel never backs up.
	go func() {
		for range node.Deliveries() {
		}
	}()

	if *gen > 0 {
		go func() {
			g := workload.NewGenerator(*id, *txSize, *gen*trace.MB, int64(*id)+1)
			start := time.Now()
			for {
				tx, gap := g.Next(time.Since(start))
				time.Sleep(gap)
				node.Submit(tx)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(*statsEvery)
	defer tick.Stop()
	var lastPayload int64
	lastAt := time.Now()
	for {
		select {
		case <-stop:
			fmt.Println("\ndlnode: shutting down")
			return
		case <-tick.C:
			s := node.Stats()
			now := time.Now()
			rate := float64(s.DeliveredPayload-lastPayload) / now.Sub(lastAt).Seconds() / trace.MB
			lastPayload, lastAt = s.DeliveredPayload, now
			fmt.Printf("epochs=%d txs=%d confirmed=%.2fMB rate=%.2fMB/s linked=%d\n",
				s.EpochsDelivered, s.DeliveredTxs,
				float64(s.DeliveredPayload)/trace.MB, rate, s.LinkedBlocks)
			if *clientAddr != "" {
				g := s.Gateway
				fmt.Printf("  gateway: accepted=%d busy=%d dup=%d commits=%d streamed=%d mempool=%.0fKB\n",
					g.Accepted, g.RejectedOverCapacity, g.RejectedDuplicate,
					g.Commits, g.CommitsStreamed, float64(s.MempoolBytes)/1024)
			}
			if s.StateSyncs > 0 || s.StateSyncServed > 0 {
				fmt.Printf("  state-sync: %d bootstraps (%.1fMB fetched, %d chunks imported), %d pages served\n",
					s.StateSyncs, float64(s.StateSyncBytes)/trace.MB, s.StateSyncChunks, s.StateSyncServed)
			}
			if s.StoreErrors > 0 {
				fmt.Fprintf(os.Stderr, "dlnode: WARNING: %d durable-write failures — persistence is OFF; %s is flagged UNSAFE_RESTART and restarting from it requires -force-restart (see docs/OPERATIONS.md)\n",
					s.StoreErrors, *datadir)
			}
		}
	}
}
