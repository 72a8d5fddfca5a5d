#!/bin/sh
# A `.`-command after a blank line must run as a meta-command, not be
# buffered as SQL text.
# Usage: shell_blank_line_test.sh <path to xnfdb_shell>
out=$(printf 'CREATE TABLE T (A INTEGER);\n\n.tables\n' | "$1") || exit 1
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -qx 'table T'
