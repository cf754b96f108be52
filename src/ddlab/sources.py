"""Text-or-path inputs shared by the file-format readers."""


def read_text(source, keywords):
    """The text a reader parses: ``source`` itself, or the file it names.

    A string holding a newline is text. A one-line string is text when its
    first word is one of the format's line keywords and more words follow, as
    in ``"p cnf 0 0"``; any other string is a path, and a missing file raises
    the ``OSError`` that ``open`` raises.
    """
    if "\n" in source:
        return source
    words = source.split()
    if len(words) > 1 and words[0] in keywords:
        return source
    with open(source, encoding="utf-8") as fh:
        return fh.read()
