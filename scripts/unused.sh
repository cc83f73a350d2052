#!/bin/sh
# Exported values nothing outside their own module uses: each top-level
# `val` of every lib/**/*.mli and each `val` of a nested
# `module NAME : sig ... end` block in one, checked against the OCaml
# sources of the other modules (lib, bin, bench, examples, test), and
# each `val` of a `module type NAME = sig ... end` block in a lib/**/*.ml
# file. Two groups:
#
#   nowhere     no other module references it: delete it, or drop it
#               from the .mli if its own module still needs it
#   tests only  only test/ references it
#
#   scripts/unused.sh            print both groups
#   scripts/unused.sh --check    print them, then exit 1 if "nowhere"
#                                names an export that scripts/unused.allow
#                                does not list
#
# scripts/unused.allow holds the documented keepers, one Module.value
# (or Module.Nested.value, or Module.Sig.value) a line; "#" starts a
# comment.
# A reference to Stats.mean_of is one of: the qualified name (which also
# matches Ba_util.Stats.mean_of), the name qualified by a module that
# includes Stats, S.mean_of in a file that says `module S = Stats`, or
# the bare name (not a label) in a file that opens or includes Stats.
# A qualified name after a value and a dot is a record field read
# (ss.Shim.gated), not a reference to a value of that name.
# A value of Endpoint's nested Server is looked up the same way, as
# Server.create (which also matches Endpoint.Server.create).
# A signature's value is reached through whatever module implements it,
# so a reference to Sender_core.S.restarts is the name qualified by any
# module (Sender.restarts, P.restarts), in any file, its own included.
# The match is textual, so a listed value is a lead, not a proof.
set -eu
check=false
case "${1:-}" in
  --check) check=true ;;
  "") ;;
  *)
    echo "usage: scripts/unused.sh [--check]" >&2
    exit 2
    ;;
esac
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

# "NAME val" for each value declared in a `module NAME : sig` block of
# the .mli file $1 (a functor's result signature is not one); the block
# ends at the `end` indented like its opening line.
nested_vals() {
  awk '
    /^ *module [A-Z][A-Za-z0-9_\047]* *: *sig *$/ {
      ind = index($0, "module"); name = $2; next
    }
    name != "" && /^ *end/ && index($0, "end") == ind { name = ""; next }
    name != "" && /^ *val [a-z_][A-Za-z0-9_\047]* *:/ {
      v = $0; sub(/^ *val /, "", v); sub(/[ :].*/, "", v); print name, v
    }' "$1"
}

nowhere=""
tests=""
# scan MLI MODULE LABEL VALUES: file those of VALUES (exports of MODULE,
# declared in MLI) that no other module's source references under
# "nowhere" or "tests only", as LABEL.value.
scan() {
  mli=$1 m=$2 label=$3
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
  for v in $4; do
    users=$(
      matching "$others" -e "(^|[^A-Za-z0-9_'.])([A-Z]$id*\\.)*($names)\\.$v$end"
      matching "$openers" -e "(^|[^A-Za-z0-9_'.~?])$v$end"
      echo "$aliases" | while read -r f a; do
        if [ -n "$f" ] && grep -qE "(^|[^A-Za-z0-9_'.])$a\\.$v$end" "$f"; then echo "$f"; fi
      done
    )
    if [ -z "$users" ]; then
      nowhere="$nowhere  $label.$v ($mli)
"
    elif ! echo "$users" | grep -qv '^test/'; then
      tests="$tests  $label.$v ($mli)
"
    fi
  done
}

for file in $(echo "$sources" | grep -E '^lib/.*\.mli$'); do
  top=$(modname "$file")
  scan "$file" "$top" "$top" "$(sed -nE "s/^val ([a-z_]$id*) *:.*/\\1/p" "$file")"
  nested=$(nested_vals "$file")
  for n in $(echo "$nested" | awk '{ print $1 }' | uniq); do
    scan "$file" "$n" "$top.$n" "$(echo "$nested" | awk -v n="$n" '$1 == n { print $2 }')"
  done
done

# "NAME val" for each value declared in a `module type NAME = sig`
# block of the .ml file $1; the block ends at the `end` indented like
# its opening line.
sig_vals() {
  awk '
    /^ *module type [A-Z][A-Za-z0-9_\047]* *= *sig *$/ {
      ind = index($0, "module"); name = $3; next
    }
    name != "" && /^ *end/ && index($0, "end") == ind { name = ""; next }
    name != "" && /^ *val [a-z_][A-Za-z0-9_\047]* *:/ {
      v = $0; sub(/^ *val /, "", v); sub(/[ :].*/, "", v); print name, v
    }' "$1"
}

sig_unused=$(
  for ml in $(echo "$sources" | grep -E '^lib/.*\.ml$'); do
    m=$(modname "$ml")
    sig_vals "$ml" | while read -r s v; do
      users=$(matching "$sources" -e "(^|[^A-Za-z0-9_'.])([A-Z]$id*\\.)+$v$end")
      if [ -z "$users" ]; then echo "nowhere $m.$s.$v ($ml)"
      elif ! echo "$users" | grep -qv '^test/'; then echo "tests $m.$s.$v ($ml)"
      fi
    done
  done
)
n=$(echo "$sig_unused" | sed -n 's/^nowhere /  /p')
t=$(echo "$sig_unused" | sed -n 's/^tests /  /p')
if [ -n "$n" ]; then nowhere="$nowhere$n
"; fi
if [ -n "$t" ]; then tests="$tests$t
"; fi

printf 'nowhere:\n%s' "${nowhere:-  (none)
}"
printf 'tests only:\n%s' "${tests:-  (none)
}"

if $check; then
  allowed=$(sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' scripts/unused.allow)
  unlisted=$(printf '%s' "$nowhere" | awk '{ print $1 }' | grep -vxF -e "$allowed" || true)
  if [ -n "$unlisted" ]; then
    echo "unused.sh: used nowhere and not in scripts/unused.allow:" >&2
    echo "$unlisted" | sed 's/^/  /' >&2
    exit 1
  fi
  echo "unused.sh: every export used nowhere is in scripts/unused.allow"
fi
