"""weilcalc benchmark (see README.md)."""
