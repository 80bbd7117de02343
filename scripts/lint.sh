#!/usr/bin/env bash
# Lint gate: clang-format (diff-clean or fail) and clang-tidy over src/
# (every subsystem directory, src/rebalance/ included), tests/ and bench/,
# driven by the committed .clang-format / .clang-tidy. The portable stage
# also sweeps fuzz/ (harnesses + corpus generator).
#
# Both tools are optional in minimal containers: when one is missing the
# corresponding stage is skipped with a warning (CI installs both, so the
# gate is always enforced there). A set of portable checks that need no
# LLVM tooling always runs. Exits non-zero on any finding.
#
# Usage: scripts/lint.sh [format|tidy|portable]   (default: all stages)
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"
fail=0

cxx_sources() {
  find src tests bench -name '*.cc' -o -name '*.h' | sort
}

run_format() {
  if ! command -v clang-format >/dev/null 2>&1; then
    echo "[lint] clang-format not found; skipping format stage" >&2
    return 0
  fi
  echo "[lint] clang-format --dry-run -Werror"
  if ! cxx_sources | xargs clang-format --dry-run -Werror; then
    fail=1
  fi
}

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "[lint] clang-tidy not found; skipping tidy stage" >&2
    return 0
  fi
  # clang-tidy needs a compilation database; configure a throwaway build
  # dir exporting one if the default build hasn't.
  local db_dir=build
  if [ ! -f build/compile_commands.json ]; then
    db_dir=build-lint
    cmake -S . -B "$db_dir" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DCMAKE_BUILD_TYPE=Release >/dev/null
  fi
  echo "[lint] clang-tidy (database: $db_dir)"
  if ! find src bench -name '*.cc' | sort |
    xargs clang-tidy -p "$db_dir" --quiet; then
    fail=1
  fi
}

# Every field of every `struct *Options` or `struct *Thresholds` in the
# serving and observability directories must be set somewhere outside
# tests/: a knob that only tests (or nothing) set is a constant in
# disguise. A field counts as set when a line writes it —
# `=`, a brace initializer, `>>` or `.emplace(` — through a prefix of its
# struct's type: a variable the same file declares with that type (or a
# `using` alias of it), or a holder field of that type, so
# `options.serve.durability = ...` sets both ShardedOptions::serve and
# ServeOptions::durability. NetServerOptions::host is exempt: it is a
# deployment address, and every caller in the tree serves on loopback.
check_options_have_callers() {
  local defs uses
  defs=$(find src/net src/obs src/rebalance src/serve src/shard src/store \
    src/tier -name '*.h' | sort)
  uses=$(find src bench examples perfbench fuzz \
    \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) | sort)
  # shellcheck disable=SC2086
  awk '
    function sets(l, p, f) {
      if (match(l, ">>[ \t]*" p "(\\.|->)" f "([^A-Za-z0-9_]|$)")) return 1
      return match(l, "(^|[^A-Za-z0-9_])" p "(\\.|->)" f \
        "((\\.[A-Za-z_][A-Za-z_0-9]*)*[ \t]*(=[^=]|\\{)|\\.emplace\\()")
    }
    # Variables declared with an Options type become prefixes of that type
    # for the rest of their file.
    function scan_file(   i, l, t, pre, k, key, pp) {
      for (i = 1; i <= nlines; i++) {
        l = lines[i]
        for (t in type_of) {
          if (index(l, t) == 0) continue
          if (match(l, "(^|[^A-Za-z0-9_])" t \
                "[ \t]*[&*]?[ \t]+[A-Za-z_][A-Za-z_0-9]*")) {
            pre = substr(l, RSTART, RLENGTH)
            sub(/.*[ \t&*]/, "", pre)
            if (!((type_of[t], pre) in prefix)) prefix[type_of[t], pre] = 2
          }
        }
      }
      for (i = 1; i <= nlines; i++) {
        l = lines[i]
        for (k = 1; k <= nfields; k++) {
          if (set[k] || index(l, fname[k]) == 0) continue
          for (key in prefix) {
            split(key, pp, SUBSEP)
            if (pp[1] == fstruct[k] && sets(l, pp[2], fname[k])) {
              set[k] = 1
              break
            }
          }
        }
      }
      for (key in prefix) if (prefix[key] == 2) delete prefix[key]
      nlines = 0
    }
    # Pass 1: the struct definitions, their fields and type aliases.
    pass == 1 && /^class [A-Za-z_]+/ { cls = $2 }
    pass == 1 && /^ *using [A-Za-z_]+ = [A-Za-z_]*(Options|Thresholds);/ {
      t = $4; sub(/;/, "", t); type_of[cls "::" $2] = t
    }
    pass == 1 && /^struct [A-Za-z_]*(Options|Thresholds) \{/ {
      sname = $2; body = ""; inside = 1; type_of[sname] = sname; next
    }
    pass == 1 && inside && /^\};/ {
      gsub(/\{[^{}]*\}/, "", body)
      n = split(body, decls, ";")
      for (i = 1; i <= n; i++) {
        d = decls[i]
        sub(/=.*/, "", d)
        if (!match(d, /[A-Za-z_][A-Za-z_0-9]*[ \t]*$/)) continue
        f = substr(d, RSTART, RLENGTH)
        gsub(/[ \t]/, "", f)
        t = substr(d, 1, RSTART - 1)
        nfields++; fname[nfields] = f; fstruct[nfields] = sname
        if (match(t, /[A-Za-z_]*(Options|Thresholds)/)) {
          prefix[substr(t, RSTART, RLENGTH), f] = 1  # a holder field
        }
      }
      inside = 0; next
    }
    pass == 1 && inside {
      l = $0; sub(/\/\/.*/, "", l); body = body " " l; next
    }
    # Pass 2: every source file outside tests/.
    pass == 2 && FNR == 1 && nlines > 0 { scan_file() }
    pass == 2 { l = $0; sub(/\/\/.*/, "", l); lines[++nlines] = l }
    END {
      if (nlines > 0) scan_file()
      for (k = 1; k <= nfields; k++) {
        q = fstruct[k] "::" fname[k]
        if (set[k] || q == exempt) continue
        print "[lint]   " q; bad = 1
      }
      exit bad
    }
  ' exempt=NetServerOptions::host pass=1 $defs pass=2 $uses
}

# Tool-free checks enforceable with grep and awk alone; these run
# everywhere, including containers without LLVM.
run_portable() {
  echo "[lint] portable checks"
  # No accidental debugging output in library code (tests/bench excluded;
  # tools under src/tools are the CLI surface and print by design). A
  # 'lint-ok: output' marker on the printing line or the one above
  # suppresses the finding for deliberate fatal-path diagnostics.
  if find src -name '*.cc' -o -name '*.h' | grep -v '^src/tools/' |
    grep -v '^src/obs/' | sort | xargs awk '
      /lint-ok: output/ { skip = 2 }
      /std::cout|std::cerr|printf\(/ {
        if (skip == 0) { print FILENAME ":" FNR ": " $0; found = 1 }
      }
      { if (skip > 0) skip-- }
      END { exit found }'; then
    :
  else
    echo "[lint] error: raw output in library code (annotate deliberate" \
      "uses with '// lint-ok: output')" >&2
    fail=1
  fi
  # Headers must carry include guards matching the repo convention.
  local h
  for h in $(find src fuzz -name '*.h'); do
    if ! grep -q '#ifndef ANC_' "$h"; then
      echo "[lint] error: $h lacks an ANC_* include guard" >&2
      fail=1
    fi
  done
  # No TODOs without an owner or issue reference.
  if grep -rn 'TODO[^(:]' src tests bench fuzz --include='*.cc' \
    --include='*.h'; then
    echo "[lint] error: bare TODO (use TODO(name) or TODO(#issue))" >&2
    fail=1
  fi
  # [[nodiscard]] discipline: Status and Result are class-level
  # [[nodiscard]] (src/util/status.h), which is what turns a silently
  # dropped error into a compile error under -Werror=unused-result. Guard
  # the attributes themselves so a refactor cannot quietly shed them.
  local attr
  for attr in 'class \[\[nodiscard\]\] Status' 'class \[\[nodiscard\]\] Result'; do
    if ! grep -q "$attr" src/util/status.h; then
      echo "[lint] error: src/util/status.h lost its '$attr' attribute" \
        "(dropped Status/Result results would compile again)" >&2
      fail=1
    fi
  done
  # And deliberate drops must say why: every '(void)' cast of a
  # Status/Result-returning call needs a reason in a comment on the same
  # line or the line above ('//' anywhere nearby counts; fuzz harnesses
  # drop by design and carry a file-level rationale).
  if find src -name '*.cc' -o -name '*.h' | sort | xargs awk '
      { prev_comment = comment; comment = (/\/\// ? 1 : 0) }
      /\(void\)[A-Za-z_:.>-]+.*\(/ {
        if (!comment && !prev_comment) {
          print FILENAME ":" FNR ": " $0; found = 1
        }
      }
      END { exit found }'; then
    :
  else
    echo "[lint] error: unexplained (void) drop of a function result" \
      "(add a comment saying why the Status/Result is discarded)" >&2
    fail=1
  fi
  if ! check_options_have_callers; then
    echo "[lint] error: the *Options/*Thresholds fields above are set" \
      "nowhere outside tests/ (make each a constant next to its user, or" \
      "delete it)" >&2
    fail=1
  fi
}

case "$stage" in
  format) run_format ;;
  tidy) run_tidy ;;
  portable) run_portable ;;
  all)
    run_format
    run_tidy
    run_portable
    ;;
  *)
    echo "usage: scripts/lint.sh [format|tidy|portable]" >&2
    exit 2
    ;;
esac

if [ "$fail" -ne 0 ]; then
  echo "[lint] FAILED" >&2
  exit 1
fi
echo "[lint] OK"
