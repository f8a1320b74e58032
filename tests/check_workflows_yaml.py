"""Parse every file in a GitHub workflows directory with yaml.safe_load.

Usage: python3 check_workflows_yaml.py <workflows-dir>
Exits non-zero, naming the file, on the first document that does not parse
(or when the directory holds no workflow files).
"""
import pathlib
import sys

import yaml


def main() -> int:
    files = sorted(p for p in pathlib.Path(sys.argv[1]).iterdir() if p.is_file())
    if not files:
        print(f"no workflow files in {sys.argv[1]}")
        return 1
    for path in files:
        try:
            yaml.safe_load(path.read_text())
        except yaml.YAMLError as err:
            print(f"{path}: {err}")
            return 1
        print(f"{path}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
