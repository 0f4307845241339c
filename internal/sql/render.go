package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Render turns a parsed statement back into its canonical SQL spelling.
// The property test parse(Render(stmt)) == stmt pins the parser and the
// renderer against each other.
func Render(stmt Stmt) string {
	switch s := stmt.(type) {
	case CreateTable:
		cols := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = c + " INT"
		}
		return fmt.Sprintf("CREATE TABLE %s (%s)", s.Name, strings.Join(cols, ", "))
	case DropTable:
		return "DROP TABLE " + s.Name
	case Insert:
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", s.Table)
		for i, row := range s.Rows {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for j, v := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(strconv.FormatInt(v, 10))
			}
			sb.WriteByte(')')
		}
		return sb.String()
	case *Select:
		var sb strings.Builder
		sb.WriteString("SELECT ")
		if s.Star {
			sb.WriteByte('*')
		} else {
			for i, it := range s.Items {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(renderItem(it))
			}
		}
		if s.Into != "" {
			sb.WriteString(" INTO " + s.Into)
		}
		sb.WriteString(" FROM " + s.Table)
		if len(s.Where) > 0 {
			sb.WriteString(" WHERE ")
			for i, c := range s.Where {
				if i > 0 {
					sb.WriteString(" AND ")
				}
				fmt.Fprintf(&sb, "%s %s %d", c.Col, c.Op, c.Val)
			}
		}
		if s.GroupBy != "" {
			sb.WriteString(" GROUP BY " + s.GroupBy)
		}
		if s.OrderBy != "" {
			sb.WriteString(" ORDER BY " + s.OrderBy)
			if s.Desc {
				sb.WriteString(" DESC")
			}
		}
		if s.Limit >= 0 {
			fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
		}
		return sb.String()
	default:
		return fmt.Sprintf("-- unsupported statement %T", stmt)
	}
}

func renderItem(it SelectItem) string {
	switch it.Agg {
	case AggNone:
		return it.Col
	case AggCountStar:
		return "COUNT(*)"
	case AggCount:
		return "COUNT(" + it.Col + ")"
	case AggSum:
		return "SUM(" + it.Col + ")"
	case AggMin:
		return "MIN(" + it.Col + ")"
	case AggMax:
		return "MAX(" + it.Col + ")"
	default:
		return it.Col
	}
}
