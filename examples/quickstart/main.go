// Quickstart: open a durable ASSET database, run an atomic transaction,
// survive a "crash", and verify recovery — the smallest end-to-end tour of
// the public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	asset "repro"
	"repro/models"
)

func main() {
	dir, err := os.MkdirTemp("", "asset-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Open a durable database: the WAL and its checkpoint snapshots live in dir.
	m, err := asset.Open(asset.Config{Dir: dir, SyncCommits: true})
	if err != nil {
		log.Fatal(err)
	}

	// The raw primitives: initiate registers the transaction, begin starts
	// it on its own goroutine, commit blocks until the body completes and
	// then makes its effects durable.
	var greeting asset.OID
	t, err := m.Initiate(func(tx *asset.Tx) error {
		var err error
		greeting, err = tx.Create([]byte("hello, extended transactions"))
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Begin(t); err != nil {
		log.Fatal(err)
	}
	if err := m.Commit(t); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed object %v\n", greeting)

	// The models package wraps that boilerplate; an error return aborts
	// and rolls back automatically.
	err = models.Atomic(m, func(tx *asset.Tx) error {
		if err := tx.Write(greeting, []byte("this write will be rolled back")); err != nil {
			return err
		}
		return fmt.Errorf("changed my mind")
	})
	fmt.Printf("aborted transaction returned: %v\n", err)

	// Simulate a crash: close without checkpointing and reopen. Recovery
	// replays the log; the committed create survives, the abort stays
	// undone.
	m.Close()
	m2, err := asset.Open(asset.Config{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer m2.Close()
	data, ok := m2.Cache().Read(greeting)
	fmt.Printf("after recovery: %q (found=%v)\n", data, ok)

	// A two-step saga with a compensation, for flavour.
	res, err := models.NewSaga(m2).
		Step("reserve",
			func(tx *asset.Tx) error { return tx.Write(greeting, []byte("reserved")) },
			func(tx *asset.Tx) error { return tx.Write(greeting, []byte("released")) }).
		Step("confirm",
			func(tx *asset.Tx) error { return fmt.Errorf("confirmation failed") }, nil).
		Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saga outcome: %v\n", res.Err())
	data, _ = m2.Cache().Read(greeting)
	fmt.Printf("after compensation: %q\n", data)

	if _, err := fmt.Println("the log is in", dir, "(inspect with cmd/walinspect)"); err != nil {
		log.Fatal(err)
	}
}
