package dispersedledger

import "testing"

func TestClusterDefaults(t *testing.T) {
	c, err := NewCluster(Config{}) // zero config: N=4, F=1, DL
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.N() != 4 {
		t.Fatalf("default N = %d", c.N())
	}
}

func TestClusterErrors(t *testing.T) {
	c, err := NewCluster(Config{N: 4, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Deliveries(9); err != ErrBadNode {
		t.Fatalf("Deliveries(9) err = %v", err)
	}
	if _, err := c.Stats(-1); err != ErrBadNode {
		t.Fatalf("Stats(-1) err = %v", err)
	}
	if err := c.Submit(99, []byte("x")); err == nil {
		t.Fatal("Submit(99) accepted")
	}
}
