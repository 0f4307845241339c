package server

import "crackdb/internal/sql"

// Hooks for the package's tests.

// IsTabular reports whether the response carries a result table.
func (r *Response) IsTabular() bool { return r.Err == "" && r.Message == "" }

// InFlight returns the number of requests sent but not yet received.
func (p *Pipeline) InFlight() int { return len(p.sent) - p.head }

// fromResult puts a statement's answer into a Response of its own.
func fromResult(r sql.Result) *Response { return new(Response).answer(r) }
