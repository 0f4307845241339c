// Command dbtapestry generates the paper's benchmark tables (§4): N rows
// and α columns where each column holds a shuffled permutation of 1..N.
// "The output of this program is an SQL script to build a table" — this
// implementation emits either that SQL script or CSV.
//
// Usage:
//
//	dbtapestry -n 1000000 -alpha 2 -seed 42 -format sql > tapestry.sql
//	dbtapestry -n 1000 -alpha 4 -format csv > tapestry.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"crackdb/internal/relation"
)

func main() {
	var (
		n      = flag.Int("n", 1000, "number of rows N")
		alpha  = flag.Int("alpha", 2, "number of columns α")
		seed   = flag.Int64("seed", 42, "RNG seed")
		format = flag.String("format", "csv", "output format: csv or sql")
		name   = flag.String("table", "tapestry", "table name for SQL output")
	)
	flag.Parse()

	if *n < 1 || *alpha < 1 {
		fmt.Fprintln(os.Stderr, "dbtapestry: need -n >= 1 and -alpha >= 1")
		os.Exit(1)
	}

	tbl := relation.Tapestry(*n, *alpha, *seed)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	switch *format {
	case "csv":
		fmt.Fprintln(w, strings.Join(tbl.ColumnNames(), ","))
		row := make([]string, tbl.Arity())
		for i := 0; i < tbl.Len(); i++ {
			for j, v := range tbl.Row(i) {
				row[j] = strconv.FormatInt(v, 10)
			}
			fmt.Fprintln(w, strings.Join(row, ","))
		}
	case "sql":
		cols := tbl.ColumnNames()
		defs := make([]string, len(cols))
		for i, c := range cols {
			defs[i] = c + " integer"
		}
		fmt.Fprintf(w, "CREATE TABLE %s (%s);\n", *name, strings.Join(defs, ", "))
		fmt.Fprintln(w, "BEGIN;")
		vals := make([]string, tbl.Arity())
		for i := 0; i < tbl.Len(); i++ {
			for j, v := range tbl.Row(i) {
				vals[j] = strconv.FormatInt(v, 10)
			}
			fmt.Fprintf(w, "INSERT INTO %s VALUES (%s);\n", *name, strings.Join(vals, ", "))
		}
		fmt.Fprintln(w, "COMMIT;")
	default:
		fmt.Fprintf(os.Stderr, "dbtapestry: unknown format %q (want csv or sql)\n", *format)
		os.Exit(1)
	}
}
