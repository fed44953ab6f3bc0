// Quickstart: run a 4-node DispersedLedger cluster in-process, submit
// transactions to different nodes, and watch every node deliver the same
// totally-ordered log.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	dl "dledger"
)

func main() {
	cluster, err := dl.NewCluster(dl.Config{
		N: 4, F: 1,
		BatchDelay: 50 * time.Millisecond,
		// This cluster keeps all state in memory: nothing survives the
		// process and no filesystem I/O happens. Set DataDir to make the
		// nodes durable — each persists a write-ahead log, its AVID
		// chunks and periodic checkpoints under DataDir/node-<i>, fsyncs
		// are batched per protocol step, and a cluster re-created over
		// the same directory resumes exactly where this one stopped.
		// Pair DataDir with RetainEpochs to bound the on-disk chunk
		// store (compaction follows the same garbage-collection horizon).
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Watch node 3's log.
	deliveries, err := cluster.Deliveries(3)
	if err != nil {
		log.Fatal(err)
	}

	// Submit transactions through different nodes, as different
	// organizations of a consortium would.
	payments := []string{
		"alice pays bob 10",
		"bob pays carol 4",
		"carol pays dave 2",
		"dave pays alice 7",
	}
	for i, p := range payments {
		if err := cluster.Submit(i%cluster.N(), []byte(p)); err != nil {
			log.Fatal(err)
		}
	}

	// Collect until all four transactions are delivered (they may arrive
	// across several blocks/epochs).
	fmt.Println("deliveries at node 3:")
	seen := 0
	timeout := time.After(30 * time.Second)
	for seen < len(payments) {
		select {
		case d := <-deliveries:
			for _, tx := range d.Txs {
				seen++
				fmt.Printf("  epoch %d, proposer %d, linked=%v: %s\n",
					d.Epoch, d.Proposer, d.Linked, tx)
			}
		case <-timeout:
			log.Fatal("timed out waiting for deliveries")
		}
	}

	s, _ := cluster.Stats(3)
	fmt.Printf("node 3 stats: %d txs in %d epochs\n", s.DeliveredTxs, s.EpochsDelivered)
}
