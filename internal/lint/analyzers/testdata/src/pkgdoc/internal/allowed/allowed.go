package allowed //agave:allow pkgdoc fixture: an undocumented package the directive excuses
