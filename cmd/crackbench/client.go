package main

import (
	"fmt"
	"strings"
	"time"

	"crackdb/internal/server"
)

// execOnce runs one statement or /meta command on a running cracksrv and
// prints the reply: how an operator sends /save, /wal or /stats to it.
func execOnce(addr, stmt string) error {
	c, err := server.DialTimeout(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	resp, err := c.Do(stmt)
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return fmt.Errorf("%s: %s", stmt, resp.Err)
	}
	if resp.Message != "" {
		fmt.Println(resp.Message)
	}
	for _, row := range resp.Rows {
		fmt.Println(strings.Join(row, "\t"))
	}
	return nil
}
