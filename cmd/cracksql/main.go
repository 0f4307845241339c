// Command cracksql is an interactive SQL shell over the cracking store:
// a one-shard cracksrv served in process. Every line is answered by the
// server's own request path (server.Server.Answer), so its row order,
// error text, meta commands and persistence are cracksrv's. Every WHERE
// clause you run doubles as cracking advice: watch \stats and \lineage
// to see the store reorganize itself under your queries.
//
// The store cracks under standard, the paper's cracking and the
// library's default, not under cracksrv's default ddr: a cut then lands
// exactly where a query points, so \lineage draws the paper's crack
// lineage (Figure 5) without the auxiliary cuts a stochastic crack
// would add to it. cracksql takes no -strategy.
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
// Meta commands are cracksrv's /commands typed with a backslash (\help
// lists them all; \q is \quit), among them:
//
//	\tables                       list tables
//	\stats [<table> <col>]        cracking statistics of every cracked column, or of one
//	\tapestry <name> <n> <alpha> [seed]   load a DBtapestry table
//	\save [full]                  checkpoint a -data store: full, delta or skipped
//	\wal, \metrics                the log's position, the store's metrics
//	\quit
//
// One is cracksql's own, the embedded store's Figure 5 view, which the
// server does not serve:
//
//	\lineage <table> <col>        render the cracker lineage DAG
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"crackdb/internal/server"
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
	srv := server.New(store, nil)
	// \metrics answers as cracksrv's /metrics does, timing one converged
	// lookup in 256 as cracksrv does.
	srv.EnableObservability(0, 256)

	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			fail(err)
		}
		if err := run(srv, string(data)); err != nil {
			fail(err)
		}
	} else {
		fmt.Println("cracksql — the database store that cracks under pressure")
		fmt.Println(`type SQL terminated by ';' or a \command: \help lists cracksrv's /commands,`)
		fmt.Println(`each run here with a backslash, and \lineage <table> <column> draws a cracker lineage`)
		repl(srv, store)
	}
	if err := store.CloseWAL(); err != nil {
		fail(err)
	}
}

// run answers the statements of script in turn, printing each answer,
// and stops at the first that fails. A syntax error anywhere refuses
// the whole script before any statement runs.
func run(srv *server.Server, script string) error {
	stmts, err := sql.SplitScript(script)
	if err != nil {
		return err
	}
	for i, stmt := range stmts {
		resp, _ := srv.Answer(stmt)
		if resp.Err != "" {
			return fmt.Errorf("statement %d: %s", i+1, resp.Err)
		}
		printResult(resp)
	}
	return nil
}

func repl(srv *server.Server, store *shard.Store) {
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
			if meta(srv, store, trimmed) {
				return
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if strings.Contains(line, ";") {
			if err := run(srv, pending.String()); err != nil {
				fmt.Println("error:", err)
			}
			pending.Reset()
		}
		prompt()
	}
}

// meta answers a backslash command: \lineage from the embedded store,
// any other \cmd as the server's /cmd. It reports whether to quit.
func meta(srv *server.Server, store *shard.Store, cmd string) (quit bool) {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case `\lineage`:
		if len(fields) != 3 {
			fmt.Println(`usage: \lineage <table> <column>`)
			return false
		}
		lin, err := store.Shard(0).Lineage(fields[1], fields[2])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Print(lin)
		return false
	case `\q`:
		cmd = `\quit`
	}
	resp, quit := srv.Answer("/" + cmd[1:])
	printResult(resp)
	return quit
}

func printResult(resp *server.Response) {
	switch {
	case resp.Err != "":
		fmt.Println("error:", resp.Err)
		return
	case resp.Message != "":
		fmt.Println(resp.Message)
		return
	}
	widths := make([]int, len(resp.Columns))
	for i, c := range resp.Columns {
		widths[i] = len(c)
	}
	for _, row := range resp.Rows {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	var sb strings.Builder
	for i, c := range resp.Columns {
		if i > 0 {
			sb.WriteString(" | ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], c)
	}
	fmt.Println(sb.String())
	sb.Reset()
	for i := range resp.Columns {
		if i > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	fmt.Println(sb.String())
	for _, row := range resp.Rows {
		sb.Reset()
		for i, cell := range row {
			if i > 0 {
				sb.WriteString(" | ")
			}
			if _, err := strconv.ParseInt(cell, 10, 64); err == nil {
				fmt.Fprintf(&sb, "%*s", widths[i], cell) // numbers right-aligned
			} else {
				fmt.Fprintf(&sb, "%-*s", widths[i], cell)
			}
		}
		fmt.Println(sb.String())
	}
	fmt.Printf("(%d rows)\n", len(resp.Rows))
}
