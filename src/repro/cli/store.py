"""``store inspect``: keyless inspection of a ``repro.store`` directory."""

from __future__ import annotations

import json


def _cmd_store_inspect(args) -> None:
    from ..store import format_inspection, inspect_store

    report = inspect_store(args.path)
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        print(format_inspection(report))


def register(sub) -> None:
    store = sub.add_parser("store", help="inspect repro.store files")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_inspect = store_sub.add_parser(
        "inspect",
        help="dump record counts, live/tombstone ratio, and last committed "
             "LSN of a WAL store directory (no key needed)",
    )
    store_inspect.add_argument("path", help="WAL store directory")
    store_inspect.add_argument("--json", action="store_true", help="emit JSON")
    store_inspect.set_defaults(func=_cmd_store_inspect)
