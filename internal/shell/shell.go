// Package shell implements the assetsh command language: an interactive
// (and scriptable) front end to an ASSET database in which transactions
// stay open across input lines, so the extended-transaction primitives —
// permit, delegate, form_dependency — can be exercised by hand between
// operations of live transactions.
package shell

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	asset "repro"
)

// Shell interprets commands against one manager.
type Shell struct {
	m    *asset.Manager
	out  io.Writer
	txns map[asset.TID]*asset.Tx // open interactive transactions' handles, a reference held on each
	// Echo makes the shell print each command before its output (script
	// transcripts).
	Echo bool
}

// New returns a shell over m writing output to out.
func New(m *asset.Manager, out io.Writer) *Shell {
	return &Shell{m: m, out: out, txns: make(map[asset.TID]*asset.Tx)}
}

// Run executes commands from r until EOF or the quit command. Errors from
// individual commands are printed, not fatal; only I/O errors abort.
func (s *Shell) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if s.Echo {
			fmt.Fprintf(s.out, "> %s\n", line)
		}
		quit, err := s.Exec(line)
		if err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
		}
		if quit {
			break
		}
	}
	s.closeAll()
	return sc.Err()
}

// closeAll completes any interactive transactions still open, leaving them
// to whoever commits or aborts them next.
func (s *Shell) closeAll() {
	for id, tx := range s.txns {
		tx.Complete()
		s.drop(id)
	}
}

// drop forgets the handle of transaction id, if the shell holds it, and
// gives back its reference: the manager recycles the descriptor once the
// transaction is reaped too.
func (s *Shell) drop(id asset.TID) {
	if tx, ok := s.txns[id]; ok {
		delete(s.txns, id)
		tx.Unpin()
	}
}

// Exec runs one command line; it reports whether the shell should quit.
func (s *Shell) Exec(line string) (quit bool, err error) {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		s.help()
	case "quit", "exit":
		return true, nil
	case "begin":
		return false, s.begin()
	case "commit":
		return false, s.commitCmd(args)
	case "abort":
		return false, s.abortCmd(args)
	case "read":
		return false, s.readCmd(args)
	case "write":
		return false, s.writeCmd(args)
	case "create":
		return false, s.createCmd(args)
	case "delete":
		return false, s.deleteCmd(args)
	case "add":
		return false, s.addCmd(args)
	case "permit":
		return false, s.permitCmd(args)
	case "delegate":
		return false, s.delegateCmd(args)
	case "dep":
		return false, s.depCmd(args)
	case "status":
		return false, s.statusCmd(args)
	case "objects":
		s.objectsCmd()
	case "ps":
		for _, info := range s.m.Transactions() {
			parent := ""
			if !info.Parent.IsNil() {
				parent = fmt.Sprintf(" parent=%v", info.Parent)
			}
			fmt.Fprintf(s.out, "%v %v%s\n", info.ID, info.Status, parent)
		}
	case "stats":
		st := s.m.Stats()
		fmt.Fprintf(s.out, "commits=%d aborts=%d deadlocks=%d log-forces=%d\n",
			st.Commits, st.Aborts, st.Deadlocks, st.LogForces)
	case "checkpoint":
		return false, s.m.Checkpoint()
	default:
		return false, fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return false, nil
}

func (s *Shell) help() {
	fmt.Fprint(s.out, `commands:
  begin                         start an interactive transaction (prints its tid)
  read <t> <oid>                read an object inside transaction t
  write <t> <oid> <value...>    write an object
  create <t> <value...>         create an object (prints its oid)
  delete <t> <oid>              delete an object
  add <t> <oid> <n>             escrow-increment an 8-byte counter
  commit <t> | abort <t>        terminate transaction t
  permit <ti> <tj|any> [r|w|rw|all] [oid...]   ti permits tj (no oids = all)
  delegate <ti> <tj> [oid...]   delegate ti's work (no oids = all)
  dep <CD|AD|GC|BD|BAD|EXC> <ti> <tj>          form_dependency
  status <t> | ps | objects | stats | checkpoint | quit
`)
}

func parseID(s string) (uint64, error) {
	s = strings.TrimPrefix(strings.TrimPrefix(s, "t"), "ob")
	return strconv.ParseUint(s, 10, 64)
}

func (s *Shell) tx(arg string) (*asset.Tx, error) {
	id, err := parseID(arg)
	if err != nil {
		return nil, fmt.Errorf("bad tid %q", arg)
	}
	tx, ok := s.txns[asset.TID(id)]
	if !ok {
		return nil, fmt.Errorf("no open interactive transaction t%d", id)
	}
	return tx, nil
}

func (s *Shell) oid(arg string) (asset.OID, error) {
	id, err := parseID(arg)
	if err != nil {
		return asset.NilOID, fmt.Errorf("bad oid %q", arg)
	}
	return asset.OID(id), nil
}

// begin initiates an interactive transaction and begins it; the shell then
// drives it through its handle, one command at a time.
func (s *Shell) begin() error {
	id, err := s.m.Initiate(nil)
	if err != nil {
		return err
	}
	tx, err := s.m.BeginInteractive(context.Background(), id)
	if err != nil {
		return err
	}
	s.txns[id] = tx
	fmt.Fprintf(s.out, "%v\n", id)
	return nil
}

// commitCmd completes the transaction and commits it. The status printed
// is the handle's, read before the shell drops it.
func (s *Shell) commitCmd(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: commit <t>")
	}
	tx, err := s.tx(args[0])
	if err != nil {
		return err
	}
	id := tx.ID()
	tx.Complete()
	err = s.m.Commit(id)
	st := tx.Status()
	s.drop(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%v %v\n", id, st)
	return nil
}

func (s *Shell) abortCmd(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: abort <t>")
	}
	id, err := parseID(args[0])
	if err != nil {
		return err
	}
	s.drop(asset.TID(id))
	if err := s.m.Abort(asset.TID(id)); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "t%d aborted\n", id)
	return nil
}

func (s *Shell) readCmd(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: read <t> <oid>")
	}
	tx, err := s.tx(args[0])
	if err != nil {
		return err
	}
	oid, err := s.oid(args[1])
	if err != nil {
		return err
	}
	data, err := tx.Read(oid)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%v = %q\n", oid, data)
	return nil
}

func (s *Shell) writeCmd(args []string) error {
	if len(args) < 3 {
		return errors.New("usage: write <t> <oid> <value...>")
	}
	tx, err := s.tx(args[0])
	if err != nil {
		return err
	}
	oid, err := s.oid(args[1])
	if err != nil {
		return err
	}
	return tx.Write(oid, []byte(strings.Join(args[2:], " ")))
}

func (s *Shell) createCmd(args []string) error {
	if len(args) < 2 {
		return errors.New("usage: create <t> <value...>")
	}
	tx, err := s.tx(args[0])
	if err != nil {
		return err
	}
	oid, err := tx.Create([]byte(strings.Join(args[1:], " ")))
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%v\n", oid)
	return nil
}

func (s *Shell) deleteCmd(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: delete <t> <oid>")
	}
	tx, err := s.tx(args[0])
	if err != nil {
		return err
	}
	oid, err := s.oid(args[1])
	if err != nil {
		return err
	}
	return tx.Delete(oid)
}

func (s *Shell) addCmd(args []string) error {
	if len(args) != 3 {
		return errors.New("usage: add <t> <oid> <n>")
	}
	tx, err := s.tx(args[0])
	if err != nil {
		return err
	}
	oid, err := s.oid(args[1])
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(args[2], 10, 64)
	if err != nil {
		return fmt.Errorf("bad delta %q", args[2])
	}
	return tx.Add(oid, n)
}

func (s *Shell) permitCmd(args []string) error {
	if len(args) < 2 {
		return errors.New("usage: permit <ti> <tj|any> [r|w|rw|all] [oid...]")
	}
	ti, err := parseID(args[0])
	if err != nil {
		return err
	}
	var tj asset.TID
	if args[1] != "any" {
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		tj = asset.TID(id)
	}
	ops := asset.OpAll
	rest := args[2:]
	if len(rest) > 0 {
		switch rest[0] {
		case "r":
			ops, rest = asset.OpRead, rest[1:]
		case "w":
			ops, rest = asset.OpWrite, rest[1:]
		case "rw", "all":
			ops, rest = asset.OpAll, rest[1:]
		}
	}
	var oids []asset.OID
	for _, a := range rest {
		oid, err := s.oid(a)
		if err != nil {
			return err
		}
		oids = append(oids, oid)
	}
	return s.m.Permit(asset.TID(ti), tj, oids, ops)
}

func (s *Shell) delegateCmd(args []string) error {
	if len(args) < 2 {
		return errors.New("usage: delegate <ti> <tj> [oid...]")
	}
	ti, err := parseID(args[0])
	if err != nil {
		return err
	}
	tj, err := parseID(args[1])
	if err != nil {
		return err
	}
	var oids []asset.OID
	for _, a := range args[2:] {
		oid, err := s.oid(a)
		if err != nil {
			return err
		}
		oids = append(oids, oid)
	}
	return s.m.Delegate(asset.TID(ti), asset.TID(tj), oids...)
}

func (s *Shell) depCmd(args []string) error {
	if len(args) != 3 {
		return errors.New("usage: dep <CD|AD|GC|BD|BAD|EXC> <ti> <tj>")
	}
	var typ asset.DepType
	switch strings.ToUpper(args[0]) {
	case "CD":
		typ = asset.CD
	case "AD":
		typ = asset.AD
	case "GC":
		typ = asset.GC
	case "BD":
		typ = asset.BD
	case "BAD":
		typ = asset.BAD
	case "EXC":
		typ = asset.EXC
	default:
		return fmt.Errorf("unknown dependency type %q", args[0])
	}
	ti, err := parseID(args[1])
	if err != nil {
		return err
	}
	tj, err := parseID(args[2])
	if err != nil {
		return err
	}
	return s.m.FormDependency(typ, asset.TID(ti), asset.TID(tj))
}

func (s *Shell) statusCmd(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: status <t>")
	}
	id, err := parseID(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "t%d %v\n", id, s.m.StatusOf(asset.TID(id)))
	return nil
}

func (s *Shell) objectsCmd() {
	type obj struct {
		oid  asset.OID
		data string
	}
	var objs []obj
	s.m.Cache().ForEach(func(oid asset.OID, data []byte) bool {
		objs = append(objs, obj{oid, string(data)})
		return true
	})
	sort.Slice(objs, func(i, j int) bool { return objs[i].oid < objs[j].oid })
	for _, o := range objs {
		fmt.Fprintf(s.out, "%v = %q\n", o.oid, o.data)
	}
	fmt.Fprintf(s.out, "(%d objects)\n", len(objs))
}
