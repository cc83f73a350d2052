#!/bin/sh
# Exported values nothing outside their own module uses: each top-level
# `val` of every lib/**/*.mli, checked against the OCaml sources of the
# other modules (lib, bin, bench, examples, test). Two groups:
#
#   nowhere     no other module references it: delete it, or drop it
#               from the .mli if its own module still needs it
#   tests only  only test/ references it
#
#   scripts/unused.sh
#
# A reference to Stats.mean_of is one of: the qualified name (which also
# matches Ba_util.Stats.mean_of), the name qualified by a module that
# includes Stats, S.mean_of in a file that says `module S = Stats`, or
# the bare name (not a label) in a file that opens or includes Stats.
# The match is textual, so a listed value is a lead, not a proof.
set -eu
cd "$(dirname "$0")/.."

id="[A-Za-z0-9_']"
end="([^A-Za-z0-9_']|\$)"
sources=$(git ls-files --cached --others --exclude-standard -- lib bin bench examples test |
  grep -E '\.mli?$' | while read -r f; do if [ -f "$f" ]; then echo "$f"; fi; done)

# The module a source file defines: lib/util/stats.mli -> Stats.
modname() { basename "${1%.*}" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }'; }

# Files among $1 (one path a line) matching the extended regexps $2...
matching() {
  list=$1
  shift
  if [ -n "$list" ]; then echo "$list" | xargs grep -lE "$@" 2>/dev/null || true; fi
}

nowhere=""
tests=""
for mli in $(echo "$sources" | grep -E '^lib/.*\.mli$'); do
  m=$(modname "$mli")
  others=$(echo "$sources" | grep -vxF -e "$mli" -e "${mli%i}")
  path="([A-Z]$id*\\.)*$m$end"
  names=$m
  for f in $(matching "$others" -e "^ *include +$path"); do
    names="$names|$(modname "$f")"
  done
  openers=$(matching "$others" -e "open!? +$path" -e "^ *include +$path" \
    -e "(^|[^A-Za-z0-9_'])$m\\.\\(")
  # "file alias" pairs for each `module Alias = ...M`.
  aliases=$(echo "$others" | xargs grep -oHE "module +[A-Z]$id* *= *$path" 2>/dev/null |
    sed -E 's/^([^:]*):module +([^ =]*).*/\1 \2/' || true)
  for v in $(sed -nE "s/^val ([a-z_]$id*) *:.*/\\1/p" "$mli"); do
    users=$(
      matching "$others" -e "(^|[^A-Za-z0-9_'])($names)\\.$v$end"
      matching "$openers" -e "(^|[^A-Za-z0-9_'.~?])$v$end"
      echo "$aliases" | while read -r f a; do
        if [ -n "$f" ] && grep -qE "(^|[^A-Za-z0-9_'])$a\\.$v$end" "$f"; then echo "$f"; fi
      done
    )
    if [ -z "$users" ]; then
      nowhere="$nowhere  $m.$v ($mli)
"
    elif ! echo "$users" | grep -qv '^test/'; then
      tests="$tests  $m.$v ($mli)
"
    fi
  done
done

printf 'nowhere:\n%s' "${nowhere:-  (none)
}"
printf 'tests only:\n%s' "${tests:-  (none)
}"
