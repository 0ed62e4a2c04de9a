// Catalog: a durable library catalog on the Ode-like object layer — typed
// records (gob), a B-tree for ordered title lookups, an escrow counter for
// loan statistics, and a cursor-stability scan that reports while loans
// keep committing. Restart the process against the same directory to see
// recovery (state persists via the WAL and its checkpoint snapshots).
//
//	go run ./examples/catalog
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	asset "repro"
	"repro/models"
	"repro/odb"
)

type book struct {
	Title  string
	Author string
	Year   int
	OnLoan bool
}

func main() {
	dir, err := os.MkdirTemp("", "asset-catalog-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	m, err := asset.Open(asset.Config{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	db, err := odb.Init(m)
	if err != nil {
		log.Fatal(err)
	}

	// Load the catalog: records in a collection, titles in a B-tree.
	var loans odb.Counter
	titles := []book{
		{"A Relational Model of Data", "Codd", 1970, false},
		{"Sagas", "Garcia-Molina & Salem", 1987, false},
		{"ASSET: Extended Transactions", "Biliris et al.", 1994, false},
		{"Nested Transactions", "Moss", 1981, false},
		{"Split-Transactions", "Pu, Kaiser & Hutchinson", 1988, false},
	}
	if err := models.Atomic(m, func(tx *asset.Tx) error {
		shelf, err := db.Collection(tx, "shelf")
		if err != nil {
			return err
		}
		bt, err := db.BTree(tx, "titles", 8)
		if err != nil {
			return err
		}
		for _, b := range titles {
			data, err := odb.Marshal(b)
			if err != nil {
				return err
			}
			oid, err := shelf.Insert(tx, data)
			if err != nil {
				return err
			}
			if err := bt.Set(tx, b.Title, oid); err != nil {
				return err
			}
		}
		loans, err = odb.NewCounter(tx, 0)
		return err
	}); err != nil {
		log.Fatal(err)
	}

	// Ordered range query: titles N..S.
	fmt.Println("titles in [N, T):")
	if err := models.Atomic(m, func(tx *asset.Tx) error {
		bt, err := db.BTree(tx, "titles", 8)
		if err != nil {
			return err
		}
		return bt.Range(tx, "N", "T", func(title string, oid asset.OID) bool {
			b, err := odb.Get[book](tx, oid)
			if err != nil {
				return false
			}
			fmt.Printf("  %-32s %s (%d)\n", title, b.Author, b.Year)
			return true
		})
	}); err != nil {
		log.Fatal(err)
	}

	// Check a book out (typed read-modify-write + escrow loan counter).
	checkout := func(title string) error {
		return asset.Run(context.Background(), m, asset.RunOptions{MaxAttempts: 10}, func(tx *asset.Tx) error {
			bt, err := db.BTree(tx, "titles", 8)
			if err != nil {
				return err
			}
			oid, err := bt.Get(tx, title)
			if err != nil {
				return err
			}
			if err := odb.Modify(tx, oid, func(b *book) error {
				if b.OnLoan {
					return fmt.Errorf("%q already on loan", title)
				}
				b.OnLoan = true
				return nil
			}); err != nil {
				return err
			}
			return loans.Add(tx, 1)
		})
	}
	for _, title := range []string{"Sagas", "Nested Transactions"} {
		if err := checkout(title); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checked out %q\n", title)
	}
	// A second checkout of the same book aborts cleanly.
	if err := checkout("Sagas"); err != nil {
		fmt.Printf("second checkout rejected: %v\n", err)
	}

	// A cursor-stability inventory scan: writers are not blocked behind it.
	if err := models.Atomic(m, func(tx *asset.Tx) error {
		shelf, err := db.Collection(tx, "shelf")
		if err != nil {
			return err
		}
		oids, err := shelf.OIDs(tx)
		if err != nil {
			return err
		}
		onLoan := 0
		if err := models.Scan(tx, models.CursorStability, oids, func(oid asset.OID, data []byte) error {
			var b book
			if err := odb.Unmarshal(data, &b); err != nil {
				return err
			}
			if b.OnLoan {
				onLoan++
			}
			return nil
		}); err != nil {
			return err
		}
		total, err := loans.Value(tx)
		if err != nil {
			return err
		}
		fmt.Printf("inventory: %d of %d on loan (%d loans ever)\n", onLoan, len(oids), total)
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// Crash and recover: the catalog survives.
	m.Close()
	m2, err := asset.Open(asset.Config{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer m2.Close()
	db2, err := odb.Init(m2)
	if err != nil {
		log.Fatal(err)
	}
	if err := models.Atomic(m2, func(tx *asset.Tx) error {
		bt, err := db2.BTree(tx, "titles", 8)
		if err != nil {
			return err
		}
		oid, err := bt.Get(tx, "Sagas")
		if err != nil {
			return err
		}
		b, err := odb.Get[book](tx, oid)
		if err != nil {
			return err
		}
		fmt.Printf("after restart: %q on loan = %v\n", b.Title, b.OnLoan)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
}
