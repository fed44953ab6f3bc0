package dispersedledger

import (
	"net"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMetricsDocumented keeps docs/OPERATIONS.md's metrics reference and
// the real /metrics exposition in step, both ways: every dl_* family a
// fully-featured node (TCP transport, client gateway, state sync,
// telemetry) registers must have a row in the reference tables, and
// every dl_* name the document mentions anywhere must be a family that
// node really exposes. Families are registered at construction, so one
// node of a four-member address list is enough — its peers never start.
func TestMetricsDocumented(t *testing.T) {
	addrs := make([]string, 4)
	var self net.Listener
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		if i == 0 {
			self = ln
		} else {
			ln.Close()
		}
	}
	node, err := NewTCPNode(NodeOptions{
		Config:     Config{N: 4, F: 1, CoinSecret: []byte("metrics doc"), StateSync: true},
		Addrs:      addrs,
		Listener:   self,
		Keys:       testKeyring(t, 4)[0],
		ClientAddr: "127.0.0.1:0",
		AdminAddr:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	body, _ := adminGet(t, "http://"+node.AdminAddr()+"/metrics")
	exposed := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			exposed[f[2]] = true
		}
	}

	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`(dl_[a-z0-9_]+)")
	tabled, mentioned := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		for _, m := range name.FindAllStringSubmatch(line, -1) {
			mentioned[m[1]] = true
		}
		// A reference-table row documents the metrics named in its
		// first cell (label alternatives are written with escaped pipes).
		if cells := strings.Split(strings.ReplaceAll(line, `\|`, "/"), "|"); len(cells) > 2 && strings.HasPrefix(line, "|") {
			for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
				tabled[m[1]] = true
			}
		}
	}
	var missing, stale []string
	for f := range exposed {
		if !tabled[f] {
			missing = append(missing, f)
		}
	}
	for f := range mentioned {
		if !exposed[f] {
			stale = append(stale, f)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("families on /metrics with no row in docs/OPERATIONS.md's metrics reference: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("docs/OPERATIONS.md names metrics no node exposes: %v", stale)
	}
}
