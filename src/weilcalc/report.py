"""Check reports returned by the validators.

A report never raises on mathematical failure; it records named pass/fail
items so callers (tests, CLI) can surface exactly which identity broke.
"""


class CheckReport:
    def __init__(self, title):
        self.title = title
        self.items = []

    def record(self, label, ok, detail=""):
        self.items.append((label, bool(ok), detail))
        return ok

    def extend(self, other, prefix=""):
        """Record every item of another report, its label prefixed."""
        for label, ok, detail in other.items:
            self.record(prefix + label, ok, detail)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.items)

    @property
    def failures(self):
        return [(label, detail) for label, ok, detail in self.items if not ok]

    def to_json(self):
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {"name": label, "status": "pass" if ok else "fail",
                 **({"detail": detail} if detail else {})}
                for label, ok, detail in self.items
            ],
        }

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return f"<CheckReport {self.title}: {state} ({len(self.items)} checks)>"
