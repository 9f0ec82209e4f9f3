#!/usr/bin/env python3
"""Print the two size quantities ROADMAP tracks, per crate.

Usage: loc.py [DIR ...]      (run from the repository root)

For every crate (a directory with a Cargo.toml and a src/) over the `*.rs`
files of its `src/`, `benches/` and `examples/` — bench targets and
examples are shipped code too, so nothing leaves the ledger by moving
there — and for every extra DIR given over `DIR/**/*.rs`:

* non-test lines — the lines of each file before its first line that
  starts with `#[cfg(test)]` (the in-file unit-test module, by this
  repo's convention always last);
* public items — lines among those that declare a `pub fn`, `pub struct`,
  `pub enum` or `pub trait` (`pub(crate)` items are not public).

A last row totals the facade and the workspace crates, shims excepted:
the two numbers ROADMAP tracks.

Record the output in CHANGES.md with every PR; CI prints it.
"""

import pathlib
import re
import sys

PUB_ITEM = re.compile(r"^\s*pub\s+(?:(?:const|async|unsafe)\s+)*(?:fn|struct|enum|trait)\b")


def count(*roots):
    lines = items = 0
    for path in sorted(p for root in roots for p in root.rglob("*.rs")):
        for line in path.read_text().splitlines():
            if line.startswith("#[cfg(test)]"):
                break
            lines += 1
            items += bool(PUB_ITEM.match(line))
    return lines, items


def count_crate(crate):
    return count(*(crate / d for d in ("src", "benches", "examples")))


def main():
    repo = pathlib.Path(".")
    crates = sorted(
        m.parent for m in repo.glob("crates/**/Cargo.toml") if (m.parent / "src").is_dir()
    )
    rows = [(str(c), count_crate(c)) for c in crates]
    if (repo / "src").is_dir():
        rows.insert(0, (". (facade)", count_crate(repo)))
    tracked = [n for name, n in rows if not name.startswith("crates/shims/")]
    total = tuple(sum(col) for col in zip(*tracked))
    rows += [(d.rstrip("/"), count(pathlib.Path(d))) for d in sys.argv[1:]]
    rows.append(("total (non-shim crates)", total))
    width = max(len(name) for name, _ in rows)
    print(f"{'crate':<{width}}  non-test lines  pub items")
    for name, (lines, items) in rows:
        print(f"{name:<{width}}  {lines:>14}  {items:>9}")


if __name__ == "__main__":
    main()
