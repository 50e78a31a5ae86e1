package callgraph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrSyntax is returned by Parse for malformed input.
var ErrSyntax = errors.New("callgraph: syntax error")

// Parse reads the textual application IR:
//
//	app <name>
//	func <name> <work> [local]
//	  calls <callee> <data>
//	  ...
//
// Blank lines and lines starting with '#' are ignored. "calls" lines attach
// to the most recent "func". The parsed app is validated before return.
//
// Example (the paper's Figure 1):
//
//	app fig1
//	func f1 5
//	  calls f2 10
//	  calls f3 8
//	func f2 4
//	  calls f4 12
//	  calls f5 7
//	func f3 3
//	func f4 2
//	func f5 1
func Parse(r io.Reader) (*App, error) {
	app := &App{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "app":
			if len(fields) != 2 {
				return nil, fmt.Errorf("%w: line %d: app wants 1 argument", ErrSyntax, lineNo)
			}
			app.Name = fields[1]
		case "func":
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("%w: line %d: func wants name, work[, local]", ErrSyntax, lineNo)
			}
			work, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: work %q: %v", ErrSyntax, lineNo, fields[2], err)
			}
			fn := Function{Name: fields[1], Work: work}
			if len(fields) == 4 {
				if fields[3] != "local" {
					return nil, fmt.Errorf("%w: line %d: unknown modifier %q", ErrSyntax, lineNo, fields[3])
				}
				fn.Local = true
			}
			app.Functions = append(app.Functions, fn)
		case "calls":
			if len(app.Functions) == 0 {
				return nil, fmt.Errorf("%w: line %d: calls before any func", ErrSyntax, lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("%w: line %d: calls wants callee, data", ErrSyntax, lineNo)
			}
			data, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: data %q: %v", ErrSyntax, lineNo, fields[2], err)
			}
			last := &app.Functions[len(app.Functions)-1]
			last.Calls = append(last.Calls, Call{Callee: fields[1], Data: data})
		default:
			return nil, fmt.Errorf("%w: line %d: unknown directive %q", ErrSyntax, lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("callgraph: read: %w", err)
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}
