/* Line scanners over UTF-8 bytes for ingest.parse_ohlc and ingest.read_spin_csv.
 *
 * A line ends at '\n' or at the end of the text.  scan_ohlc keeps the lines
 * of an OHLC text that need no csv rule and hands back the bounds of the
 * rest; scan_spins reads a spin-file body, or finds its first bad line.
 */
#include <stdint.h>
#include <string.h>

static const int64_t DAYS_BEFORE[13] = {0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334,
                                        365};
static const double POW10[16] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
                                 1e12, 1e13, 1e14, 1e15};

static int digit(uint8_t c) { return c >= '0' && c <= '9'; }

/* The proleptic Gregorian ordinal (0001-01-01 is 1) of a strict YYYY-MM-DD
 * calendar date with a year from 1, or 0 if the cell is anything else. */
static int64_t iso_ordinal(const uint8_t *c, int64_t len)
{
    static const int at[8] = {0, 1, 2, 3, 5, 6, 8, 9};
    if (len != 10 || c[4] != '-' || c[7] != '-')
        return 0;
    for (int k = 0; k < 8; k++)
        if (!digit(c[at[k]]))
            return 0;
    int64_t year = (c[0] - '0') * 1000 + (c[1] - '0') * 100 + (c[2] - '0') * 10 + (c[3] - '0');
    int64_t month = (c[5] - '0') * 10 + (c[6] - '0');
    int64_t day = (c[8] - '0') * 10 + (c[9] - '0');
    if (year < 1 || month < 1 || month > 12 || day < 1)
        return 0;
    int64_t leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
    if (day > DAYS_BEFORE[month] - DAYS_BEFORE[month - 1] + (month == 2 && leap))
        return 0;
    int64_t y = year - 1;
    return y * 365 + y / 4 - y / 100 + y / 400 + DAYS_BEFORE[month - 1] + (month > 2 && leap)
           + day;
}

/* A positive price cell: 1 to 16 ASCII digits with at most one '.' among
 * them.  Its digits form an int64 mantissa, below 2^53 when there is a '.'
 * (15 digits at most), and so is the power of ten it is divided by: the
 * value is rounded once, to the nearest double, as float() rounds.  Returns
 * the value, or 0 if the cell is anything else or zero. */
static double price(const uint8_t *c, int64_t len)
{
    int64_t mantissa = 0, digits = 0, dots = 0, lead = 0;
    if (len < 1 || len > 16)
        return 0.0;
    for (int64_t k = 0; k < len; k++) {
        if (digit(c[k])) {
            mantissa = mantissa * 10 + (c[k] - '0');
            digits++;
        } else if (c[k] == '.' && !dots) {
            dots = 1;
            lead = digits;
        } else {
            return 0.0;
        }
    }
    if (!digits)
        return 0.0;
    return (double)mantissa / POW10[dots ? digits - lead : 0];
}

/* The number of lines of a text, the last one counted if it holds no '\n';
 * an empty text is one line. */
static int64_t count_lines(const uint8_t *text, int64_t size)
{
    const uint8_t *end = text + size, *p = text;
    int64_t lines = 1;
    while ((p = memchr(p, '\n', (size_t)(end - p))) && ++p < end)
        lines++;
    return lines;
}

/* Lines 1, 2, ... of an OHLC text; line 0 is the header.  A line split by the
 * delimiter (the dlen bytes of one UTF-8 character) into exactly cells cells,
 * whose i_date cell is a date for iso_ordinal and whose i_open and i_close
 * cells are prices, is kept in rows as (byte offset, ordinal, open, close).
 * Any other line is left to the caller: its (start, end) byte offsets go to
 * rejected.  Returns the number of kept lines, and *n_rejected gets the
 * number of others.  With rows NULL it only returns the number of lines,
 * the room rows and rejected need. */
int64_t scan_ohlc(const uint8_t *text, int64_t size, const uint8_t *delim, int64_t dlen,
                  int64_t cells, int64_t i_date, int64_t i_open, int64_t i_close,
                  double *rows, int64_t *rejected, int64_t *n_rejected)
{
    if (!rows)
        return count_lines(text, size) - 1;
    const uint8_t *end = text + size, *stop = memchr(text, '\n', (size_t)size);
    int64_t kept = 0, left = 0;
    while (stop && stop + 1 < end) {
        const uint8_t *line = stop + 1;
        stop = memchr(line, '\n', (size_t)(end - line));
        const uint8_t *eol = stop ? stop : end;
        const uint8_t *cell = line, *date = line, *open = line, *close = line;
        int64_t date_len = -1, open_len = -1, close_len = -1, k = 0;
        for (;;) {
            const uint8_t *next = cell;  /* the next delimiter, or eol */
            while ((next = memchr(next, delim[0], (size_t)(eol - next)))
                   && dlen > 1 && (eol - next < dlen || memcmp(next, delim, (size_t)dlen) != 0))
                next++;
            next = next ? next : eol;
            if (k == i_date)
                date = cell, date_len = next - cell;
            if (k == i_open)
                open = cell, open_len = next - cell;
            if (k == i_close)
                close = cell, close_len = next - cell;
            k++;
            if (next == eol)
                break;
            cell = next + dlen;
        }
        int64_t ordinal = 0;
        double o = 0.0, c = 0.0;
        if (k == cells && (ordinal = iso_ordinal(date, date_len))
            && (o = price(open, open_len)) > 0.0 && (c = price(close, close_len)) > 0.0) {
            double *row = rows + 4 * kept++;
            row[0] = (double)(line - text);
            row[1] = (double)ordinal;
            row[2] = o;
            row[3] = c;
        } else {
            rejected[2 * left] = line - text;
            rejected[2 * left + 1] = eol - text;
            left++;
        }
    }
    *n_rejected = left;
    return kept;
}

/* The lines of a spin-file body: each a date, which holds no ',', '"' or NUL,
 * then n cells of ",1" or ",-1".  Writes each line's cells to values, n per
 * line, and its date followed by ',' to dates (room for size bytes), with
 * the bytes used in *dates_size.  Returns the number of lines, or -1 - k if
 * line k (from 0) is anything else.  With values NULL it only returns the
 * number of lines, the room values needs. */
int64_t scan_spins(const uint8_t *body, int64_t size, int64_t n, int8_t *values,
                   uint8_t *dates, int64_t *dates_size)
{
    if (!values)
        return count_lines(body, size);
    const uint8_t *p = body, *end = body + size;
    uint8_t *out = dates;
    int64_t t = 0;
    do {  /* an empty body is one blank line */
        const uint8_t *line = p;
        while (p < end && *p != ',' && *p != '\n' && *p != '"' && *p != '\0')
            p++;
        if (p == end || *p != ',')
            return -1 - t;
        memcpy(out, line, (size_t)(p - line + 1));  /* the date and its ',' */
        out += p - line + 1;
        for (int64_t j = 0; j < n; j++) {
            int64_t minus = end - p > 2 && p[1] == '-';  /* ",-1" : ",1" */
            if (end - p < 2 + minus || p[0] != ',' || p[1 + minus] != '1')
                return -1 - t;
            *values++ = (int8_t)(1 - 2 * minus);
            p += 2 + minus;
        }
        if (p < end && *p++ != '\n')
            return -1 - t;
        t++;
    } while (p < end);
    *dates_size = out - dates;
    return t;
}
