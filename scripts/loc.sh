#!/bin/sh
# Non-blank, non-comment line counts of the OCaml sources (.ml/.mli)
# under each top-level directory: lib/<name>, bin, bench and test, then
# the total.
#
#   scripts/loc.sh              counts for the working tree
#   scripts/loc.sh REV          counts for a git revision
#   scripts/loc.sh --delta REV  REV's counts, the working tree's, and
#                               the difference: a change's line delta
#
# Comments are (* ... *), nested; string literals are skipped, so a "(*"
# inside one opens no comment.
set -eu
cd "$(dirname "$0")/.."

# Lines of OCaml on stdin that keep some code once comments are gone.
loc() {
  awk '
    {
      line = $0; out = ""; n = length(line); i = 1
      while (i <= n) {
        c = substr(line, i, 1); c2 = substr(line, i, 2)
        if (depth > 0) {
          if (c2 == "(*") { depth++; i += 2 }
          else if (c2 == "*)") { depth--; i += 2 }
          else i++
        } else if (instr) {
          if (c == "\\") { out = out "x"; i += 2 }
          else { if (c == "\"") instr = 0; out = out "x"; i++ }
        } else if (c2 == "(*" && substr(line, i, 3) != "(*)") { depth = 1; i += 2 }
        else if (substr(line, i, 3) == "'\''\"'\''") { out = out "x"; i += 3 }
        else { if (c == "\"") instr = 1; out = out c; i++ }
      }
      if (out ~ /[^ \t]/) loc++
    }
    END { print loc + 0 }'
}

# OCaml sources under directory $2 at revision $1 ("" = working tree).
files() {
  if [ -n "$1" ]; then git ls-tree -r --name-only "$1" -- "$2"
  else
    git ls-files --cached --others --exclude-standard -- "$2" |
      while read -r f; do if [ -f "$f" ]; then echo "$f"; fi; done
  fi | grep -E '\.mli?$' || true
}

# "dir count" lines for revision $1 ("" = working tree), then the total.
counts() {
  dirs=$(files "$1" lib | cut -d/ -f2 | sort -u | sed 's|^|lib/|')
  total=0
  for d in $dirs bin bench test; do
    n=$(files "$1" "$d" | while read -r f; do
          if [ -n "$1" ]; then git show "$1:$f"; else cat "$f"; fi
        done | loc)
    total=$((total + n))
    echo "$d $n"
  done
  echo "total $total"
}

case "${1:-}" in
  --delta)
    rev=${2:?usage: scripts/loc.sh --delta REV}
    counts "$rev" > "${TMPDIR:-/tmp}/loc.$$.before"
    counts "" |
      awk -v before="${TMPDIR:-/tmp}/loc.$$.before" '
        BEGIN { while ((getline l < before) > 0) { split(l, a, " "); b[a[1]] = a[2] } }
        { printf "%-16s %7d %7d %+7d\n", $1, b[$1], $2, $2 - b[$1] }'
    rm -f "${TMPDIR:-/tmp}/loc.$$.before"
    ;;
  *) counts "${1:-}" | awk '{ printf "%-16s %7d\n", $1, $2 }' ;;
esac
