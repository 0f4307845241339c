// Command cracksql is an interactive SQL shell over the cracking store:
// a one-shard router (internal/shard), so its row order, error text and
// persistence are cracksrv's. Every WHERE clause you run doubles as
// cracking advice: watch the \stats and \lineage meta commands to see
// the store reorganize itself under your queries.
//
// Usage:
//
//	cracksql [-f script.sql] [-data dir]
//
// With -data the store is durable as cracksrv -data keeps it: every
// mutation is logged to a WAL in dir before it applies, \save writes a
// checkpoint (tables and crack state), and a later cracksql -data dir
// boots from the checkpoint chain and replays the log.
//
// Meta commands:
//
//	\tables                list tables
//	\stats <table> <col>   cracking statistics of a column
//	\lineage <table> <col> render the cracker lineage DAG
//	\tapestry <name> <n> <alpha> [seed]   load a DBtapestry table
//	\save                  checkpoint a -data store: prints full, delta or skipped
//	\quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"crackdb/internal/shard"
	"crackdb/internal/sql"
)

func main() {
	var (
		script  = flag.String("f", "", "execute a SQL script file and exit")
		dataDir = flag.String("data", "", "keep the store durable in this directory: a WAL plus the checkpoints \\save writes, as cracksrv -data")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "cracksql:", err)
		os.Exit(1)
	}

	store := shard.New(shard.Options{})
	if *dataDir != "" {
		var err error
		if store, _, err = shard.OpenDurable(*dataDir, shard.Options{}); err != nil {
			fail(err)
		}
	}
	eng := sql.NewEngineOn(store)

	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			fail(err)
		}
		results, err := eng.ExecScript(string(data))
		for _, rs := range results {
			printResult(rs)
		}
		if err != nil {
			fail(err)
		}
	} else {
		fmt.Println("cracksql — the database store that cracks under pressure")
		fmt.Println(`type SQL terminated by ';', or \help`)
		repl(eng, store)
	}
	if err := store.CloseWAL(); err != nil {
		fail(err)
	}
}

func repl(eng *sql.Engine, store *shard.Store) {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<24)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Print("crackdb> ")
		} else {
			fmt.Print("    ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !meta(store, trimmed) {
				return
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if strings.Contains(line, ";") {
			stmt := pending.String()
			pending.Reset()
			results, err := eng.ExecScript(stmt)
			for _, rs := range results {
				printResult(rs)
			}
			if err != nil {
				fmt.Println("error:", err)
			}
		}
		prompt()
	}
}

// meta handles backslash commands; it returns false to quit.
func meta(store *shard.Store, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case `\quit`, `\q`:
		return false
	case `\help`:
		fmt.Println(`\tables, \stats <t> <c>, \lineage <t> <c>, \tapestry <name> <n> <alpha> [seed], \save, \quit`)
	case `\tables`:
		for _, t := range store.Tables() {
			cols, _ := store.Columns(t)
			n, _ := store.NumRows(t)
			fmt.Printf("  %s (%s) — %d rows\n", t, strings.Join(cols, ", "), n)
		}
	case `\stats`:
		if len(fields) != 3 {
			fmt.Println(`usage: \stats <table> <column>`)
			break
		}
		st, err := store.Shard(0).Stats(fields[1], fields[2])
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("  queries=%d cracks=%d indexLookups=%d pieces=%d moved=%d touched=%d\n",
			st.Queries, st.Cracks, st.IndexLookups, st.Pieces, st.TuplesMoved, st.TuplesTouched)
	case `\lineage`:
		if len(fields) != 3 {
			fmt.Println(`usage: \lineage <table> <column>`)
			break
		}
		lin, err := store.Shard(0).Lineage(fields[1], fields[2])
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Print(lin)
	case `\tapestry`:
		if len(fields) < 4 {
			fmt.Println(`usage: \tapestry <name> <n> <alpha> [seed]`)
			break
		}
		n, err1 := strconv.Atoi(fields[2])
		alpha, err2 := strconv.Atoi(fields[3])
		seed := int64(42)
		if len(fields) > 4 {
			s, err := strconv.ParseInt(fields[4], 10, 64)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			seed = s
		}
		if err1 != nil || err2 != nil {
			fmt.Println("error: n and alpha must be integers")
			break
		}
		if err := store.LoadTapestry(fields[1], n, alpha, seed); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("  loaded tapestry %s (%d × %d)\n", fields[1], n, alpha)
	case `\save`:
		switch kind, err := store.Checkpoint(false); {
		case err != nil:
			fmt.Println("error:", err)
		case kind == "":
			fmt.Println("  checkpoint: skipped")
		default:
			fmt.Println("  checkpoint:", kind)
		}
	default:
		fmt.Printf("unknown meta command %s (try \\help)\n", fields[0])
	}
	return true
}

func printResult(rs *sql.ResultSet) {
	if rs.Message != "" {
		fmt.Println(rs.Message)
		return
	}
	widths := make([]int, len(rs.Columns))
	for i, c := range rs.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rs.Rows))
	for r, row := range rs.Rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			s := strconv.FormatInt(v, 10)
			cells[r][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, c := range rs.Columns {
		if i > 0 {
			sb.WriteString(" | ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], c)
	}
	fmt.Println(sb.String())
	sb.Reset()
	for i := range rs.Columns {
		if i > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	fmt.Println(sb.String())
	for _, row := range cells {
		sb.Reset()
		for i, cell := range row {
			if i > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%*s", widths[i], cell)
		}
		fmt.Println(sb.String())
	}
	fmt.Printf("(%d rows)\n", len(rs.Rows))
}
